import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import traced_peak
from oracles import (assemble_bs_matrix, assemble_direct_hamiltonian, count_above,
                     direct_count_below, finite_dim_bs_identity_check,
                     hamiltonian_flips, model_kernel_block, sandwich_blocks,
                     sector_hamiltonians)
from lattice3b import (HypothesisViolationError, InvalidSpectralPointError, ModelDataError,
                       OutOfDomainError, ResourceCapError, build_grid,
                       builtin_dispersion, builtin_epsilon, builtin_model,
                       channel_eigenvalue, cos_axis_form_factor,
                       count_eigenvalues_below, count_report,
                       coupling_threshold, custom_pair_energy,
                       essential_spectrum, form_factor, hs_diagnostics,
                       lambda_on_grid, make_model, pair_energy_sum,
                       sin_axis_form_factor, tabulated_dispersion, trust_floor)
from lattice3b import errors, threebody
from lattice3b.cli import main
from lattice3b.errors import MEMORY_LIMIT_BYTES, require_memory
from lattice3b.grids import product_nodes
from lattice3b.model import has_flip_parity, hessian_at_minimum, pair_matrix
from lattice3b.modelio import load_model
from lattice3b.threebody import (_SLAB, TIE_RTOL, _BSWorkspace, _character_sums,
                                 _count_block_singular_above, _leading_singular_values,
                                 _ritz_bounds, _squared_norm, _test_matrix)

MODELS = Path(__file__).resolve().parent.parent / "models"


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


def test_dense_oracles_are_not_package_api():
    """The dense test oracles live in tests/oracles.py: neither the package
    nor its threebody module exposes them, and threebody imports no
    scipy.sparse."""
    import ast
    import inspect

    import lattice3b
    for name in ("BSMatrix", "assemble_bs_matrix", "count_above",
                 "assemble_direct_hamiltonian", "direct_count_below",
                 "finite_dim_bs_identity_check"):
        assert not hasattr(lattice3b, name) and not hasattr(threebody, name), name
    imported = [alias.name if isinstance(node, ast.Import) else f"{node.module}.{alias.name}"
                for node in ast.walk(ast.parse(inspect.getsource(threebody)))
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert not [m for m in imported if (m + ".").startswith("scipy.sparse.")]


def test_memory_limit_is_inclusive():
    assert MEMORY_LIMIT_BYTES == 2 ** 31
    require_memory(2 ** 31, "exactly the limit")
    with pytest.raises(ResourceCapError):
        require_memory(2 ** 31 + 1, "one byte over")


def _refused(fn, *args):
    with pytest.raises(ResourceCapError):
        fn(*args)


def test_direct_hamiltonian_n6_refused_before_allocation():
    # H and its two kron terms at n = 6 would take 3 * 46656^2 * 8 bytes = 52 GB
    spec = builtin_model(6, 0.0, 0.0)
    assert traced_peak(lambda: _refused(assemble_direct_hamiltonian, spec)) < 2 ** 22


@pytest.mark.parametrize("n,fits", [(32, True), (34, True), (40, True), (42, False)])
def test_workspace_limit_on_three_axes(n, fits):
    # two stacks of 8 x C(n/2 + 2, 3) x (n/2)^3 doubles on the rows of the
    # axis permutations' orbits, the largest symmetric block and two row
    # gathers: 0.52 GB at n = 32, 1.92 GB at n = 40 and 2.55 GB at n = 42;
    # all are decided before any stack exists
    spec = builtin_model(n, 0.0, 0.0)
    if fits:
        assert traced_peak(lambda: _BSWorkspace(spec)) < 2 ** 22
    else:
        assert traced_peak(lambda: _refused(_BSWorkspace, spec)) < 2 ** 22


def test_count_with_hs_stays_in_the_workspace(spec16_critical):
    """The HS diagnostics read the sector rows of the one pass instead of
    building a model kernel stack beside it, and build each model block on the
    kernel's support only: a count sweep with HS stays within the checked
    bytes plus small temporaries (1.05x).  The checked bytes are two stacks
    of 8 flips x 120 rows (the orbits of the axis permutations) x 512
    representatives, the resolvent slab, one buffer for the largest
    symmetric block of the four orbit slots (120, 288, 288 and 120 orbits of
    their little groups) and two 120 x 512 row gathers."""
    ws = _BSWorkspace(spec16_critical)
    assert len(ws.rows) == 120
    nbytes = ws.nbytes
    assert nbytes == 8 * (2 * 8 * 120 * 512 + 8 * 8192 + 288 ** 2 + 2 * 120 * 512)
    peak = traced_peak(lambda: count_report(spec16_critical, [1e-1, 1e-4], with_hs=True))
    assert peak <= 1.05 * nbytes


def test_count_with_hs_reads_its_norms(spec16_critical, monkeypatch):
    """The count and the HS diagnostics read one table of sector row norms
    per row (_row_norms, each row summed as _squared_norm sums it), with HS
    on or off: _squared_norm never sees an M x M sector block or the rows D
    of one, only the smaller symmetric blocks, and the counts are the same
    with HS on and off."""
    M = spec16_critical.grid.n ** 3 // 8
    rows = len(_BSWorkspace(spec16_critical).rows)
    squared_norm, shapes = threebody._squared_norm, []
    row_norms, tables = threebody._row_norms, []
    monkeypatch.setattr(threebody, "_squared_norm",
                        lambda X: shapes.append(X.shape) or squared_norm(X))
    monkeypatch.setattr(threebody, "_row_norms",
                        lambda ws, Y: tables.append(Y.shape) or row_norms(ws, Y))
    s_vals = [1e-1, 1e-3, 1e-6]
    counts = []
    for with_hs in (True, False):
        counts.append(count_report(spec16_critical, s_vals, with_hs=with_hs).counts)
        assert tables == [(8, rows, M)] * len(s_vals)
        assert shapes and not {(M, M), (rows, M)} & set(shapes)
        shapes.clear()
        tables.clear()
    assert np.array_equal(*counts)


def test_essential_bisection_stays_in_the_workspace(spec16_critical):
    """Overcritical, every node has a root below m, and the bisection still
    evaluates the open brackets in the scratch stack, not in copies of U."""
    mu = 3 * spec16_critical.mu1
    spec = spec16_critical.with_params(mu1=mu, mu2=mu)
    peak = traced_peak(lambda: essential_spectrum(spec))
    assert peak <= 1.05 * _BSWorkspace(spec).nbytes


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
    blocks = sandwich_blocks(spec, z)
    M = np.block([[blocks[1, 1], blocks[1, 2]],
                  [blocks[2, 1], blocks[2, 2]]])
    return count_above(M, 1.0)


def test_intermediate_sandwich_same_counts():
    # counts of the direct Hamiltonian below z = n(1, M(z)) = n(1, T(z))
    spec = builtin_model(4, 0.0, 0.0)
    mu0 = coupling_threshold(spec, 1)
    spec = spec.with_params(mu1=0.9 * mu0, mu2=0.9 * mu0)
    zs = (-0.5, -0.05)
    for z, n_direct in zip(zs, direct_count_below(spec, zs)):
        n_m = _intermediate_count(spec, z)
        n_t = count_eigenvalues_below(spec, z)
        assert n_direct == n_m == n_t


# sin-a-b: phi1 odd on axis a, phi2 odd on axis b; each model with its flip axes
SIN_Q1_PLUS_Q2 = form_factor(1, "odd", lambda q: np.sin(q[..., 0] + q[..., 1]))
SIN_Q2_PLUS_Q3 = form_factor(2, "odd", lambda q: np.sin(q[..., 1] + q[..., 2]))
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


def _sector_stack(ws, z):
    """The 2^|A| sector blocks of T12(z), in label order: the character sums
    of the flipped blocks."""
    return ws.sector_blocks(z, list(range(2 ** len(ws.axes))))[0]


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
        blocks = _sector_stack(ws, z)
        assert blocks.shape == (2 ** len(axes),) + (spec.grid.size >> len(axes),) * 2
        sv_sectors = np.sort(np.concatenate(
            [np.linalg.svd(b, compute_uv=False) for b in blocks]))
        sv_full = np.sort(np.linalg.svd(assemble_bs_matrix(spec, z).block12,
                                        compute_uv=False))
        assert np.max(np.abs(sv_sectors - sv_full)) <= 1e-12 * sv_full[-1]


@pytest.mark.parametrize("case", ["axis-weights", "sin-q1+q2", "tabulated"])
def test_workspace_pair_stack_is_the_evaluator(case):
    """Every U_k of the workspace is the model's own u between the
    representatives flipped by k and the representatives, bit for bit, for
    three flip axes, one (A = (2,)) and none (the tabulated band, A = ());
    the representatives are the nodes positive on A in node order, and
    on_nodes spreads values on them to their images."""
    n = 6
    spec = (_tabulated_band(n) if case == "tabulated"
            else builtin_model(n, 0.0, 0.0, **SECTOR_MODELS[case][0]))
    ws = _BSWorkspace(spec)
    assert ws.axes == {"axis-weights": (0, 1, 2), "sin-q1+q2": (2,), "tabulated": ()}[case]
    nodes = spec.grid.nodes
    assert np.array_equal(ws.r, nodes[np.all(nodes[:, list(ws.axes)] > 0.0, axis=1)])
    U = ws._arrays()[0]
    assert len(U) == 2 ** len(ws.axes)
    # swapping q1 and q2 keeps sin(q1+q2) and A = (2,): 21 x 3 of the 108 rows
    assert len(ws.rows) == {"axis-weights": len(ws.r), "sin-q1+q2": 63,
                            "tabulated": len(ws.r)}[case]
    for k, flip in enumerate(ws.flips()):
        t = product_nodes(_flipped_lists(ws, flip))[ws.rows]
        assert np.array_equal(U[k], spec.pair(t[:, None, :], ws.r[None, :, :]))
        assert np.array_equal(ws.flipped_nodes[k][ws.rows], t)
    for a in range(3):
        image = np.abs(nodes[:, a]) if a in ws.axes else nodes[:, a]
        assert np.array_equal(ws.on_nodes(np.abs(ws.r[:, a]) if a in ws.axes
                                          else ws.r[:, a]), image)


def _flipped_lists(ws, flip):
    """The per-axis node lists of the representatives negated on flip's axes."""
    return [-x if a in flip else x for a, x in enumerate(ws.lists)]


def _resolvent_stack(seed, flips, m):
    """A seeded stack of flips m x m pair-energy-like arrays in [1, 2)."""
    return 1.0 + np.random.default_rng(seed).random((flips, m, m))


@pytest.mark.parametrize("flips,m", [(1, 30), (2, 70), (8, 100)])
def test_walsh_hadamard_matches_character_sums(flips, m):
    """The sector pass's Walsh-Hadamard transform of the resolvents gives the
    character sums sum_k (-1)^popcount(psi & k) / (U_k - z), also over
    several column slabs and a partial last one (m^2 = 10^4 columns per
    flip)."""
    U = _resolvent_stack(0, flips, m)
    S = np.empty_like(U)
    chars = np.array([[(-1) ** bin(psi & k).count("1") for k in range(flips)]
                      for psi in range(flips)])
    expected = np.einsum("pk,kij->pij", chars, 1.0 / (U - 0.5))
    _character_sums(U, S, 0.5)
    np.testing.assert_allclose(S, expected, rtol=0, atol=1e-12)


def test_no_axis_parity_takes_full_block():
    # sin(q1+q2) has a parity on axis 3 only and sin(q2+q3) on axis 1 only
    spec = builtin_model(4, 0.0, 0.0, phi1=SIN_Q1_PLUS_Q2, phi2=SIN_Q2_PLUS_Q3)
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


@pytest.mark.parametrize("case", ["three-axes", "no-axis-parity"])
def test_direct_oracle_sectors_equal_full_solve(case):
    """The direct oracle's sector blocks, built from diag(u) and the two rank
    terms for the flips it reads off the Hamiltonian, hold the spectrum of
    the full n^6 eigensolve: all eight flips on sin-0-1, only the full
    negation (and the identity) when neither form factor has an axis
    parity, and the same counts below every z."""
    kwargs, flips = {"three-axes": (SECTOR_MODELS["sin-0-1"][0], 8),
                     "no-axis-parity": (dict(phi1=SIN_Q1_PLUS_Q2, phi2=SIN_Q2_PLUS_Q3),
                                        [(), (0, 1, 2)])}[case]
    spec = builtin_model(4, 0.0, 0.0, **kwargs)
    spec = spec.with_params(mu1=coupling_threshold(spec, 1), mu2=coupling_threshold(spec, 2))
    found = hamiltonian_flips(spec)
    assert (len(found) if isinstance(flips, int) else found) == flips
    full = np.linalg.eigvalsh(assemble_direct_hamiltonian(spec))
    sectors = np.sort(np.concatenate([np.linalg.eigvalsh(b)
                                      for b in sector_hamiltonians(spec, found)]))
    assert np.max(np.abs(sectors - full)) <= 1e-10 * np.max(np.abs(full))
    zs = [spec.m - s for s in (1.0, 1e-2, 1e-6)] + list(full[[0, 5, 100]] + 1e-6)
    assert direct_count_below(spec, zs) == [int(np.sum(full < z)) for z in zs]


# the flip-label orbits of the axis permutations each model admits, as
# (smallest label, size); axis 0 is the top flip bit
ORBIT_MODELS = {
    "const": ({}, ((0, 1), (1, 3), (3, 3), (7, 1))),
    "sin-0-const": (dict(phi1=sin_axis_form_factor(1, 0)),
                    ((0, 1), (1, 2), (3, 1), (4, 1), (5, 2), (7, 1))),
    "weights-1-1-2": (dict(axis_weights=(1.0, 1.0, 2.0)),
                      ((0, 1), (1, 1), (2, 2), (3, 2), (6, 1), (7, 1))),
    "axis-weights": (SECTOR_MODELS["axis-weights"][0], tuple((k, 1) for k in range(8))),
    "sin-0-1": (SECTOR_MODELS["sin-0-1"][0], tuple((k, 1) for k in range(8))),
    "sin-q1+q2": (SECTOR_MODELS["sin-q1+q2"][0], ((0, 1), (1, 1))),
    "tabulated": (None, ((0, 1),)),
}


@pytest.mark.parametrize("case", sorted(ORBIT_MODELS))
def test_sector_orbits(case):
    """An axis permutation that keeps the flip axes, the axis weights and both
    form factors makes the sector blocks of one orbit isospectral: the count
    over one block per orbit, weighted by the orbit's size, equals the count
    over every block."""
    kwargs, orbits = ORBIT_MODELS[case]
    for n in (6, 8):
        if kwargs is None:
            spec = _tabulated_band(n)
            lam = max(lambda_on_grid(spec, a, spec.m - 0.2).max() for a in (1, 2))
            spec, s_values = spec.with_params(mu1=0.95 / lam, mu2=0.95 / lam), (1.0, 0.5, 0.2)
        else:
            spec = builtin_model(n, 0.0, 0.0, **kwargs)
            spec = spec.with_params(mu1=coupling_threshold(spec, 1),
                                    mu2=coupling_threshold(spec, 2))
            s_values = (1.0, 1e-2, 1e-6)
        ws = _BSWorkspace(spec)
        assert ws.orbits == orbits
        for s in s_values:
            count = count_eigenvalues_below(spec, spec.m - s, ws)
            assert count == _count_block_singular_above(_sector_stack(ws, spec.m - s), 1.0)


def test_sector_orbit_counts_reach_nine():
    spec = builtin_model(12, cross_weight=6.0)
    spec = spec.with_params(mu1=coupling_threshold(spec, 1), mu2=coupling_threshold(spec, 2))
    ws = _BSWorkspace(spec)
    assert ws.orbits == ORBIT_MODELS["const"][1]
    counts = []
    for s in (1.0, 1e-1, 1e-2, 1e-4, 1e-8):
        counts.append(count_eigenvalues_below(spec, spec.m - s, ws))
        assert counts[-1] == _count_block_singular_above(_sector_stack(ws, spec.m - s), 1.0)
    assert max(counts) == 9


def test_count_monotone_and_zero_far_below(spec8):
    norm_v = (2 * np.pi) ** 3   # ||V_alpha|| for phi == 1
    z_deep = spec8.m - (spec8.M - spec8.m) - (spec8.mu1 + spec8.mu2) * norm_v
    assert count_eigenvalues_below(spec8, z_deep) == 0
    counts = [count_eigenvalues_below(spec8, z) for z in (-2.0, -0.5, -0.05)]
    assert counts == sorted(counts)


def test_block_counter_matches_dense(spec8):
    """The counting kernel equals dense counts with its tie rule: on the full
    512-row block of spec8 (Frobenius norm below 1, so skipped) against the
    eigenvalues of T(z), and on sector stacks of 216, 343 and 512 rows
    (certified at p = 8) and the full 512-row block of the tabulated band (8
    values above 1, so p doubles to 16) against their dense singular
    values."""
    for z in (-0.9, -0.2):
        bs = assemble_bs_matrix(spec8, z)
        dense = count_above(bs.full(), 1.0)
        blockwise = _count_block_singular_above(bs.block12, 1.0)
        assert dense == blockwise
    tab = _tabulated_band(8)
    lam = max(lambda_on_grid(tab, a, tab.m - 0.05).max() for a in (1, 2))
    cases = [(tab.with_params(mu1=0.95 / lam, mu2=0.95 / lam), (1.0, 0.2, 0.1, 0.05))]
    for n, cross_weight in ((12, 6.0), (14, 6.0), (16, 1.0)):
        spec = builtin_model(n, cross_weight=cross_weight)
        spec = spec.with_params(mu1=coupling_threshold(spec, 1),
                                mu2=coupling_threshold(spec, 2))
        cases.append((spec, (1.0, 1e-1, 1e-2, 1e-4, 1e-8)))
    counts = []
    for spec, s_values in cases:
        ws = _BSWorkspace(spec)
        for s in s_values:
            stack = _sector_stack(ws, spec.m - s)
            sv = np.linalg.svd(stack, compute_uv=False)
            dense = int(np.sum(sv > 1.0 + TIE_RTOL * sv.max()))
            assert _count_block_singular_above(stack, 1.0) == dense, (spec.grid.n, s)
            counts.append(dense)
    # the tabulated block reaches 8 values above 1, the cross-weight-6 stacks 9
    assert counts[3] == 8 and max(counts[4:]) == 9


@pytest.mark.parametrize("rows", [601, 700])
def test_block_counter_counts_a_whole_large_block(rows):
    """Every singular value above mu counts: a block with a value above mu in
    every Ritz slot ends in the dense spectrum, not in a count cut at p."""
    block = np.diag(np.linspace(1.5, 2.5, rows))
    assert _count_block_singular_above(block, 1.0) == rows


def _rotated(sv: np.ndarray, seed: int, noise: float = 0.0) -> np.ndarray:
    """A square block with singular values sv in seeded random bases, plus
    seeded Gaussian noise of the given size."""
    rng = np.random.default_rng(seed)
    U, V = (np.linalg.qr(rng.standard_normal((sv.size, sv.size)))[0] for _ in range(2))
    return (U * sv) @ V.T + noise * rng.standard_normal((sv.size, sv.size))


@pytest.mark.parametrize("case", ["hidden-within-rho", "tie"])
def test_uncertified_block_ends_in_dense_spectrum(case):
    """A block the Ritz values cannot certify ends in its dense spectrum with
    the dense tie-rule count: one value 1.001 under 299 values 0.99, which no
    Ritz subspace of up to 256 columns separates from the rest (it lies
    within rho of 1), and a rank-2 block whose second value 1 + 1e-13, found
    to rounding, lies inside the tie band."""
    if case == "hidden-within-rho":
        block = _rotated(np.concatenate([[1.001], np.full(299, 0.99)]), seed=3)
    else:
        block = _rotated(np.concatenate([[2.0, 1.0 + 1e-13], np.zeros(298)]), seed=3)
    sv = np.linalg.svd(block, compute_uv=False)
    dense = int(np.sum(sv > 1.0 + TIE_RTOL * sv.max()))
    assert dense == 1
    fro2 = _squared_norm(block)
    assert _leading_singular_values(block, 1.0, fro2, TIE_RTOL * np.sqrt(fro2)).size == 300
    assert _count_block_singular_above(block, 1.0) == dense


def test_ritz_test_matrix_is_cached_and_unchanged():
    """The Gaussian test matrix of the Ritz step is drawn once per shape, from
    seed 0 as before, and handed out read-only."""
    omega = _test_matrix(343, 8)
    assert _test_matrix(343, 8) is omega
    assert np.array_equal(omega, np.random.default_rng(0).standard_normal((343, 8)))
    assert not omega.flags.writeable


def test_ritz_bounds_are_certified():
    """s_i - r <= sigma_i(B) <= s_i + rho for every Ritz value, on the sector
    blocks of the critical cross-weight-6 model at n = 12 and 14 and on
    seeded low-rank-plus-noise blocks; every resonance block the Frobenius
    test does not skip is certified with p = 8 Ritz values."""
    blocks = []
    for n in (12, 14):
        spec = builtin_model(n, cross_weight=6.0)
        spec = spec.with_params(mu1=coupling_threshold(spec, 1),
                                mu2=coupling_threshold(spec, 2))
        ws = _BSWorkspace(spec)
        for s in (1.0, 1e-1, 1e-2, 1e-4, 1e-8):
            stack = _sector_stack(ws, spec.m - s)
            for k, _ in ws.orbits:
                fro2 = _squared_norm(stack[k])
                if fro2 > 1.0:
                    sv = _leading_singular_values(stack[k], 1.0, fro2, TIE_RTOL * np.sqrt(fro2))
                    assert sv.size == 8, (n, s, k)
                    blocks.append(stack[k].copy())
    for seed in range(6):
        rank = 2 + seed
        sv = np.concatenate([np.geomspace(3.0, 1.05, rank), np.zeros(200 - rank)])
        blocks.append(_rotated(sv, seed, noise=0.02))
    for block in blocks:
        sigma = np.linalg.svd(block, compute_uv=False)
        for p in (8, 16):
            s, rho, r = _ritz_bounds(block, p, _squared_norm(block))
            assert 0.0 < r < 1e-4 * np.linalg.norm(block)
            assert np.all(s - r <= sigma[:p])
            assert np.all(sigma[:p] <= s + rho)


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


# flip axes and the labels (c1, c2) of the form factors' parity characters
# on them: T keeps every sector when c1 == c2, else it moves each one
HS_MODELS = {
    "const": ({}, (0, 1, 2), (0, 0)),
    "sin-1-1": (dict(phi1=sin_axis_form_factor(1, 0), phi2=sin_axis_form_factor(2, 0)),
                (0, 1, 2), (4, 4)),
    "cos-2-sin-3": (dict(phi1=cos_axis_form_factor(1, 1), phi2=sin_axis_form_factor(2, 2)),
                    (0, 1, 2), (0, 1)),
    "weights-cross-6": (dict(axis_weights=(1.0, 2.0, 3.0), cross_weight=6.0),
                        (0, 1, 2), (0, 0)),
    "sin-q1+q2": (dict(phi1=SIN_Q1_PLUS_Q2), (2,), (0, 0)),
    "no-parity": (dict(phi1=SIN_Q1_PLUS_Q2, phi2=SIN_Q2_PLUS_Q3), (), (0, 0)),
    # u(t, p) != u(p, t): l1 != l2, so neither kernel is symmetric in (t, p)
    "custom-asymmetric": (None, (), (0, 0)),
}


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("case", sorted(HS_MODELS))
def test_hs_diagnostics_match_dense_block(case, n):
    """The HS norm of T(z) and its distance to the model kernel, summed over
    the sector blocks, equal the dense computation on the full cross block
    and the full model-kernel block, for both parity-character branches."""
    kwargs, axes, chi = HS_MODELS[case]
    if kwargs is None:
        eps = builtin_dispersion().fn
        spec = make_model(custom_pair_energy(
            lambda t, p: eps(t) + eps(t - p) + 2.0 * eps(p)), n, 0.0, 0.0)
    else:
        spec = builtin_model(n, 0.0, 0.0, **kwargs)
    spec = spec.with_params(mu1=coupling_threshold(spec, 1),
                            mu2=coupling_threshold(spec, 2))
    hess = hessian_at_minimum(spec)
    ws = _BSWorkspace(spec)
    assert (ws.axes, ws.chi) == (axes, chi)
    for s in (1e-1, 1e-2, 1e-4):
        bs = assemble_bs_matrix(spec, spec.m - s)
        # at n <= 8 the cutoffs 1 and 0.5 keep at most the 8 innermost nodes;
        # 3 keeps about half the grid
        for delta in (1.0, 0.5, 3.0):
            hs, diff = hs_diagnostics(spec, spec.m - s, delta, hess, ws)
            ref = np.linalg.norm(bs.block12 - model_kernel_block(spec, hess, s, delta))
            assert hs == pytest.approx(bs.hs_norm(), rel=1e-12)
            assert diff == pytest.approx(np.sqrt(2.0) * ref, rel=1e-12)
    # the workspace holds the model's sector rows on D only, never a full block
    blocks = (2 ** len(axes), len(ws.rows), spec.grid.size >> len(axes))
    assert [a.shape for a in ws._arrays()] == [blocks, blocks]
    assert (len(ws.rows) < blocks[2]) == (len(ws.group) > 1)


def _reference_sector_blocks(spec, ws, z):
    """(blocks, d1, d2, top): the sector blocks sum_k psi(k) T_k of T12(z) on
    the representatives in label order, built without the workspace's
    passes, from pair_matrix on the flipped lists, a dense reciprocal and
    the determinants d1, d2 of the full pair matrix (on the
    representatives), and top = max_k |T_k|."""
    w, f1, f2 = spec.grid.weight, spec.phi_values(1), spec.phi_values(2)
    R = 1.0 / (pair_matrix(spec) - z)
    d1 = 1.0 - spec.mu1 * w * (f1 ** 2 @ R)
    d2 = 1.0 - spec.mu2 * w * (R @ f2 ** 2)
    reps = np.all(spec.grid.nodes[:, list(ws.axes)] > 0.0, axis=1)
    col = f1[reps] / np.sqrt(d2[reps])
    row = np.sqrt(spec.mu1 * spec.mu2) * w * f2[reps] / np.sqrt(d1[reps])
    T = np.array([np.outer(col, row) / (pair_matrix(spec, rows=_flipped_lists(ws, flip),
                                                    cols=ws.lists) - z)
                  for flip in ws.flips()])
    n = len(T)
    blocks = np.array([sum((-1) ** bin(psi & k).count("1") * T[k] for k in range(n))
                       for psi in range(n)])
    return blocks, d1[reps], d2[reps], np.max(np.abs(T))


@pytest.mark.parametrize("case", ["sin-1-1", "cos-2-sin-3", "sin-q1+q2", "no-parity"])
def test_sector_pass_equals_character_sums(case):
    """Every sector block of the one pass equals sum_k psi(k) T_k built
    independently, from pair_matrix on the flipped lists, a dense reciprocal
    and the determinants of the full pair matrix, to 1e-13 relative, for
    c1 == c2 != 0, c1 != c2, A = (2,) and A = () on a grid whose M^2 is not
    a multiple of _SLAB; a block's bits do not depend on which other blocks
    sector_blocks is asked for ({0}, the orbit representatives or all
    labels), and the determinants are those of the full pair matrix on the
    representatives."""
    kwargs, axes, chi = HS_MODELS[case]
    spec = builtin_model(10, 0.0, 0.0, **kwargs)
    spec = spec.with_params(mu1=coupling_threshold(spec, 1), mu2=coupling_threshold(spec, 2))
    ws = _BSWorkspace(spec)
    assert (ws.axes, ws.chi) == (axes, chi)
    n, M = 2 ** len(axes), len(ws.r)
    assert M * M > _SLAB and M * M % _SLAB != 0
    z = spec.m - 1e-2
    ref, d1, d2, top = _reference_sector_blocks(spec, ws, z)
    formed = {}
    for slots in ([0], ws.orbit_slots, list(range(n))):
        stack, e1, e2 = ws.sector_blocks(z, slots)
        assert np.max(np.abs(e1 - d1)) <= 1e-13 * np.max(np.abs(d1))
        assert np.max(np.abs(e2 - d2)) <= 1e-13 * np.max(np.abs(d2))
        for i, psi in enumerate(slots):
            assert np.max(np.abs(stack[i] - ref[psi])) <= 1e-13 * top
            assert np.array_equal(stack[i], formed.setdefault(psi, stack[i].copy()))


def test_hs_diagnostics_with_a_hessian_the_axis_permutations_move():
    """The HS distance runs on one flip per orbit only when the permutations
    of the sector orbits leave the model kernel's U unchanged: with a caller's
    U = diag(1/2, 1, 2) on the const model every flip is summed, as in the
    dense computation."""
    spec = builtin_model(6, 0.0, 0.0)
    spec = spec.with_params(mu1=coupling_threshold(spec, 1), mu2=coupling_threshold(spec, 2))
    hess = dataclasses.replace(hessian_at_minimum(spec), U=np.diag([0.5, 1.0, 2.0]))
    ws = _BSWorkspace(spec)
    assert len(ws.orbits) == 4
    for s in (1e-1, 1e-2):
        bs = assemble_bs_matrix(spec, spec.m - s)
        for delta in (1.0, 3.0):
            _, diff = hs_diagnostics(spec, spec.m - s, delta, hess, ws)
            ref = np.linalg.norm(bs.block12 - model_kernel_block(spec, hess, s, delta))
            assert diff == pytest.approx(np.sqrt(2.0) * ref, rel=1e-12)


def _support_size(ws, hess, delta):
    """|I|: the representatives on the union of the flipped kernel supports."""
    flipped = ws.flipped_nodes
    inside = threebody._kernel_support(flipped.reshape(-1, 3), hess, delta)[1]
    return int(inside.reshape(len(flipped), -1).any(axis=0).sum())


@pytest.mark.parametrize("n", [6, 8, 12, 14, 16, 24])
def test_kernel_support_is_the_einsum_quad_form(n):
    """The quad form (x, U x) of the kernel support, one matrix product and a
    row sum, equals the three-operand einsum bit for bit on every grid node,
    for the Hessians of the shipped and the HS test models and a caller's
    U = diag(1/2, 1, 2), so the support masks are the einsum's too."""
    specs = [load_model(str(MODELS / f"{name}.json"), n).spec
             for name in ("resonance_strong", "builtin_critical", "eigenvalue_case")]
    specs += [builtin_model(n, 0.0, 0.0, **HS_MODELS[case][0])
              for case in ("sin-1-1", "weights-cross-6", "sin-q1+q2", "no-parity")]
    x, base = specs[0].grid.nodes, hessian_at_minimum(specs[0])
    for U in [hessian_at_minimum(spec).U for spec in specs] + [np.diag([0.5, 1.0, 2.0])]:
        hess = dataclasses.replace(base, U=U)
        ref = np.einsum("ij,jk,ik->i", x, U, x)
        assert np.array_equal(threebody._kernel_support(x, hess, 1.0)[0], ref)
        for delta in (0.5, 1.0, 3.0):
            assert np.array_equal(threebody._kernel_support(x, hess, delta)[1],
                                  ref < delta * delta)


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("edge", ["every node", "empty", "moved U"])
def test_hs_distance_edges_match_dense_block(edge, n):
    """The Parseval form of the HS distance (c1 == c2) equals the dense
    computation at its edges, on the const model (c2 = 0) and sin-1-1 (c2 =
    4): a cutoff whose support I holds every representative, so the
    off-support mass is 0 and its clamp at 0 takes the rounding of either
    sign; an empty support, where the distance is the norm itself; and a
    caller's U = diag(1/2, 1, 2), which the axis permutations move."""
    for case in ("const", "sin-1-1"):
        kwargs, _, chi = HS_MODELS[case]
        spec = builtin_model(n, 0.0, 0.0, **kwargs)
        spec = spec.with_params(mu1=coupling_threshold(spec, 1),
                                mu2=coupling_threshold(spec, 2))
        hess = hessian_at_minimum(spec)
        if edge == "moved U":
            hess = dataclasses.replace(hess, U=np.diag([0.5, 1.0, 2.0]))
        ws = _BSWorkspace(spec)
        assert ws.chi == chi and chi[0] == chi[1]
        for delta in {"every node": [1e3], "empty": [1e-9], "moved U": [1.0, 3.0]}[edge]:
            m = _support_size(ws, hess, delta)
            assert m == {"every node": len(ws.r), "empty": 0}.get(edge, m)
            assert edge != "moved U" or 0 < m < len(ws.r)
            for s in (1e-1, 1e-3):
                bs = assemble_bs_matrix(spec, spec.m - s)
                hs, diff = hs_diagnostics(spec, spec.m - s, delta, hess, ws)
                ref = np.linalg.norm(bs.block12 - model_kernel_block(spec, hess, s, delta))
                assert diff == pytest.approx(np.sqrt(2.0) * ref, rel=1e-12)
                assert edge != "empty" or diff == hs


def test_hs_distance_reads_only_the_support_entries(monkeypatch):
    """With c1 == c2 and |G| = 6 (builtin_critical at n = 12), the HS distance
    reads the sector rows by one gather of the 2^|A| |I|^2 support entries
    B_psi[I, I], never by forming blocks (_plan_block raises here), and
    still gives the values of PARENT_HS_N12."""
    spec = _evidence_model("builtin_critical", 12)
    hess = hessian_at_minimum(spec)
    ws = _BSWorkspace(spec)
    assert len(ws.group) == 6 and ws.chi == (0, 0)
    taken = []

    class Reads(np.ndarray):
        def __getitem__(self, key):
            out = np.asarray(super().__getitem__(key))
            taken.append(out.size)
            return out

    def no_rows(*args, **kwargs):
        raise AssertionError("the HS distance formed a block")

    def read_rows(self, z):
        Y, d1, d2 = sector_rows(self, z)
        return Y.view(Reads), d1, d2

    sector_rows = _BSWorkspace._sector_rows
    monkeypatch.setattr(threebody, "_plan_block", no_rows)
    monkeypatch.setattr(_BSWorkspace, "_sector_rows", read_rows)
    points = [(1e-4, 1.0), (1e-4, 3.0), (1e-1, 3.0)]
    for (s, delta), ref in zip(points, PARENT_HS_N12["builtin_critical"]):
        taken.clear()
        got = hs_diagnostics(spec, spec.m - s, delta, hess, ws)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
        m = _support_size(ws, hess, delta)
        assert 0 < m < len(ws.r)
        assert taken == [8 * m * m]


@pytest.mark.parametrize("case", ["builtin_critical", "cos-2-sin-3"])
def test_hs_support_taken_once_per_sweep(monkeypatch, case):
    """count_report tests the kernel support on the flipped nodes once per
    sweep, not once per row, for c1 == c2 (builtin_critical) and c1 != c2
    (cos-2-sin-3), and its HS columns equal hs_diagnostics row by row, bit
    for bit."""
    if case in HS_MODELS:
        spec = builtin_model(12, 0.0, 0.0, **HS_MODELS[case][0])
        spec = spec.with_params(mu1=coupling_threshold(spec, 1),
                                mu2=coupling_threshold(spec, 2))
    else:
        spec = _evidence_model(case, 12)
    hess, ws = hessian_at_minimum(spec), _BSWorkspace(spec)
    assert (ws.chi[0] == ws.chi[1]) == (case == "builtin_critical")
    assert 0 < _support_size(ws, hess, 3.0) < len(ws.r)
    support, calls = threebody._kernel_support, []
    monkeypatch.setattr(threebody, "_kernel_support",
                        lambda *a: calls.append(len(a[0])) or support(*a))
    s_vals = np.geomspace(1e-4, 1.0, 9)
    rep = count_report(spec, s_vals, delta=3.0)
    assert calls == [2 ** len(ws.axes) * len(ws.r)]
    for s, hs, hsd in zip(rep.m_minus_z, rep.hs_norm, rep.hs_diff):
        assert hs_diagnostics(spec, spec.m - s, 3.0, hess, ws) == (hs, hsd)


def test_hs_row_peak_with_a_wide_support(spec16_critical):
    """One HS row at delta = 3 on n = 16 (232 of 512 representatives in the
    support) allocates the workspace and, on top, the support's model
    kernel, the gather of the 2^|A| |I|^2 support entries and small
    temporaries: at most 3 x 2^|A| |I|^2 x 8 bytes beside nbytes."""
    hess = hessian_at_minimum(spec16_critical)
    ws = _BSWorkspace(spec16_critical)
    m = _support_size(ws, hess, 3.0)
    assert m == 232
    z = spec16_critical.m - 1e-2
    peak = traced_peak(lambda: hs_diagnostics(spec16_critical, z, 3.0, hess))
    assert peak <= ws.nbytes + 3 * 8 * m * m * 8


@pytest.mark.parametrize("case", ["resonance_strong", "eigenvalue_case", "no-parity"])
def test_hs_diagnostics_match_dense_block_n12(case):
    """At n = 12, the HS norm and the model-kernel distance from the flipped
    blocks equal the dense computation on the full cross block, for cutoffs
    whose support holds a few nodes (0.5, 1) or about half the grid (3):
    resonance_strong keeps every sector (c1 == c2), eigenvalue_case moves
    each one (c1 != c2), and the no-parity model has A = ()."""
    if case == "no-parity":
        spec = builtin_model(12, 0.0, 0.0, phi1=SIN_Q1_PLUS_Q2, phi2=SIN_Q2_PLUS_Q3)
        spec = spec.with_params(mu1=coupling_threshold(spec, 1),
                                mu2=coupling_threshold(spec, 2))
    else:
        spec = load_model(str(MODELS / f"{case}.json"), 12).spec
    hess = hessian_at_minimum(spec)
    ws = _BSWorkspace(spec)
    assert (ws.chi[0] == ws.chi[1]) == (case != "eigenvalue_case")
    assert (ws.axes == ()) == (case == "no-parity")
    for s in (1e-1, 1e-4):
        bs = assemble_bs_matrix(spec, spec.m - s)
        for delta in (0.5, 1.0, 3.0):
            hs, diff = hs_diagnostics(spec, spec.m - s, delta, hess, ws)
            ref = np.linalg.norm(bs.block12 - model_kernel_block(spec, hess, s, delta))
            assert hs == pytest.approx(bs.hs_norm(), rel=1e-12)
            assert diff == pytest.approx(np.sqrt(2.0) * ref, rel=1e-12)


def test_count_report_refuses_a_decreasing_count(spec8, monkeypatch, tmp_path, capsys):
    """N(z) is monotone in z: a count that falls as z rises stops the sweep
    with a HypothesisViolationError instead of a row, and the CLI exits 3
    without a report."""
    counts = iter([2, 3, 1, 4] * 2)
    monkeypatch.setattr(threebody, "_count_block_singular_above",
                        lambda *args: next(counts))
    with pytest.raises(HypothesisViolationError, match="fell from 3"):
        count_report(spec8, [1e-1, 1e-2, 1e-3, 1e-4], with_hs=False)
    out = tmp_path / "counts.csv"
    assert main(["count", "--model", str(MODELS / "builtin_critical.json"), "--grid", "8",
                 "--zmin-exp", "1", "--zmax-exp", "4", "--no-hs", "--out", str(out)]) == 3
    assert capsys.readouterr().out == "" and not out.exists()


def test_count_report_columns_and_trust(spec16_critical, monkeypatch):
    s_vals = np.geomspace(1e-3, 1e-1, 5)
    character_sums = threebody._character_sums
    calls = []

    def count_passes(*args):
        calls.append("pass")
        return character_sums(*args)

    monkeypatch.setattr(threebody, "_character_sums", count_passes)
    rep = count_report(spec16_critical, s_vals, with_hs=True)
    # the count, det_min and HS share each row's sector blocks: one pass per row
    assert calls == ["pass"] * len(s_vals)
    monkeypatch.undo()
    assert rep.m_minus_z[0] > rep.m_minus_z[-1]
    assert np.all(np.diff(rep.counts) >= 0)            # counts grow toward threshold
    floor = trust_floor(16)
    assert np.array_equal(rep.trusted, rep.m_minus_z >= floor)
    assert np.all(np.isfinite(rep.hs_norm))
    assert np.all(rep.det_min > 0)
    # one sector pass per row gives the count, det_min and HS columns of the
    # standalone counter, the determinants on every node and hs_diagnostics
    ws = _BSWorkspace(spec16_critical)
    hess = hessian_at_minimum(spec16_critical)
    for s, count, det_min, hs, hsd in zip(rep.m_minus_z, rep.counts, rep.det_min,
                                          rep.hs_norm, rep.hs_diff):
        z = spec16_critical.m - s
        assert count == count_eigenvalues_below(spec16_critical, z, ws)
        assert det_min == min(float(d.min()) for d in ws.determinants(z))
        assert (hs, hsd) == hs_diagnostics(spec16_critical, z, 1.0, hess, ws)
    text = rep.to_csv()
    assert text.splitlines()[0] == "m_minus_z,count,det_min,hs_norm,hs_diff,trusted"


# Counts of the parent commit aea4499 (the stored orbit-block path, every M x
# M sector block formed) on rows m - z = 10^-k, k = 0..8, and its HS values
# (hs_norm, hs_diff) at n = 12 for (m - z, delta) = (1e-4, 1), (1e-4, 3) and
# (1e-1, 3).  The rows D path must reproduce them: the counts exactly, the HS
# values within 1e-12 relative.
PARENT_COUNTS = {
    "resonance_strong": [1, 2, 9, 9, 9, 9, 9, 9, 9],
    "builtin_critical": [0, 1, 1, 1, 1, 1, 1, 1, 1],
    "eigenvalue_case": [0, 1, 1, 1, 1, 1, 1, 1, 1],
    "weights-1-1-2": [0, 1, 1, 1, 1, 1, 1, 1, 1],
}
PARENT_HS_N12 = {
    "resonance_strong": [(15.28101981790227, 12.990133081474914),
                         (15.28101981790227, 12.526094638293538),
                         (5.75486012266476, 3.8336344127000936)],
    "builtin_critical": [(2.2621120709871807, 1.9505228536864214),
                         (2.2621120709871807, 1.4364558030217485),
                         (1.8962085895263348, 1.2988915308487765)],
    "eigenvalue_case": [(2.347177999383508, 2.471221366053512),
                        (2.347177999383508, 2.6069293903581614),
                        (2.074654866018019, 2.269947229056276)],
    "weights-1-1-2": [(2.254770551605012, 1.9817093883137062),
                      (2.254770551605012, 1.4375045803754218),
                      (1.9447944347040047, 1.3146199312936433)],
}


def _evidence_model(case, n):
    if case == "weights-1-1-2":
        spec = builtin_model(n, 0.0, 0.0, axis_weights=(1.0, 1.0, 2.0))
        return spec.with_params(mu1=coupling_threshold(spec, 1),
                                mu2=coupling_threshold(spec, 2))
    return load_model(str(MODELS / f"{case}.json"), n).spec


@pytest.mark.parametrize("n", [12, 16])
@pytest.mark.parametrize("case", sorted(PARENT_COUNTS))
def test_fundamental_rows_reproduce_parent(case, n):
    """The count from the rows D (one per orbit of the axis permutations) and
    the little-group symmetric blocks equals the parent's stored path on
    every row k = 0..8, with the group of order 6 (resonance_strong,
    builtin_critical), 2 (eigenvalue_case, c1 != c2; axis weights (1, 1, 2),
    S2 on two axes); at n = 12 the HS values agree to 1e-12."""
    spec = _evidence_model(case, n)
    ws = _BSWorkspace(spec)
    assert len(ws.group) == (6 if case in ("resonance_strong", "builtin_critical") else 2)
    assert len(ws.rows) < len(ws.r)
    counts = [count_eigenvalues_below(spec, spec.m - 10.0 ** -k, ws) for k in range(9)]
    assert counts == PARENT_COUNTS[case]
    if n == 12:
        hess = hessian_at_minimum(spec)
        points = [(1e-4, 1.0), (1e-4, 3.0), (1e-1, 3.0)]
        for (s, delta), ref in zip(points, PARENT_HS_N12[case]):
            got = hs_diagnostics(spec, spec.m - s, delta, hess, ws)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


def test_fundamental_rows_reproduce_parent_n24():
    """resonance_strong at n = 24, 364 rows D of 1728: the parent's counts
    at m - z = 1, 1e-2 and 1e-8."""
    spec = _evidence_model("resonance_strong", 24)
    ws = _BSWorkspace(spec)
    assert (len(ws.rows), len(ws.r)) == (364, 1728)
    counts = [count_eigenvalues_below(spec, spec.m - s, ws) for s in (1.0, 1e-2, 1e-8)]
    assert counts == [1, 5, 9]


def _irrep_projectors(ws, psi):
    """(dimension, projector) per irrep of the little group of psi, acting on
    the representatives by ws.perms: trivial and sign for a group of order
    2, also the two-dimensional standard irrep (character: fixed axes - 1)
    for S3."""
    little = [g for g in range(len(ws.group)) if ws.labels[g, psi] == psi]
    M = len(ws.r)
    mats = []
    for g in little:
        P = np.zeros((M, M))
        P[ws.perms[g], np.arange(M)] = 1.0
        mats.append(P)
    perms = [ws.group[g] for g in little]
    sign = [np.linalg.det(np.eye(3)[list(s)]) for s in perms]
    irreps = [(1, [1.0] * len(perms)), (1, sign)][:min(len(perms), 2)]
    if len(perms) == 6:
        irreps.append((2, [sum(s[a] == a for a in range(3)) - 1.0 for s in perms]))
    return [(d, d / len(perms) * sum(c * P for c, P in zip(chi, mats))) for d, chi in irreps]


def _edge_peaked(q):
    """Sum over a of (1 - cos q_a) prod_{b != a} (1 + cos q_b): even on every
    axis and invariant under the axis permutations, zero at the origin and
    largest, 2, on the three points of the orbit of (pi, 0, 0)."""
    c = np.cos(q)
    return sum((1 - c[..., a]) * (1 + c[..., (a + 1) % 3]) * (1 + c[..., (a + 2) % 3])
               for a in range(3))


def _fallback_model(case, n=12):
    """The n^3 models of test_irrep_counts_sum_to_the_count whose rest
    certificate fails: "overcoupled" (cross weight 15) or "edge-peaked",
    both couplings at 0.999 / max_p Lambda(p, m - 1e-8)."""
    spec = (builtin_model(n, 0.0, 0.0, cross_weight=15.0) if case == "overcoupled" else
            builtin_model(n, 0.0, 0.0, cross_weight=6.0,
                          phi1=form_factor(1, "even", _edge_peaked),
                          phi2=form_factor(2, "even", _edge_peaked)))
    lam = max(lambda_on_grid(spec, a, spec.m - 1e-8).max() for a in (1, 2))
    return spec.with_params(mu1=0.999 / lam, mu2=0.999 / lam)


@pytest.mark.parametrize("case", ["resonance_strong", "eigenvalue_case", "overcoupled",
                                  "edge-peaked"])
def test_irrep_counts_sum_to_the_count(case):
    """The sector blocks split by the irreps of their little groups: the
    counts of B_psi on each isotypic subspace (each singular value there
    taken dim times) times the orbit sizes sum to N(z).  On the shipped
    models every count lies in the symmetric irreps, which the symmetric
    blocks count, and the other irreps are certified empty.

    "overcoupled" is built to need the fallback: cross weight 15 with both
    couplings at 0.999 / max_p Lambda(p, m - 1e-8), so the determinants
    nearly vanish at the threshold and every sector block is large (the
    000 block's Frobenius norm is about 130 at m - z = 1e-6); its rest norm
    exceeds 1 on the trivial orbit, whose whole block is then formed from
    the rows D and counted.  Its counts are the parent's.

    "edge-peaked" puts levels outside the symmetric irreps: both form factors
    are _edge_peaked, cross weight 6, couplings at 0.999 / max Lambda as
    above.  Lambda then peaks on a three-point orbit, so the 000 block binds
    a level in the two-dimensional irrep of S3 as well as in the symmetric
    one; its rest exceeds 1, and only the fallback's whole block counts
    that level.  Its counts are the parent's and those of the dense T(z)
    (count_above of assemble_bs_matrix)."""
    spec = (_fallback_model(case) if case in ("overcoupled", "edge-peaked")
            else _evidence_model(case, 12))
    ws = _BSWorkspace(spec)
    projectors = {psi: _irrep_projectors(ws, psi) for psi in ws.orbit_slots}
    counts, fallbacks = [], 0
    for s in (1.0, 1e-2, 1e-6):
        z = spec.m - s
        stack = ws.sector_blocks(z, ws.orbit_slots)[0]
        total = symmetric = 0
        top = max(np.linalg.norm(b, 2) for b in stack)
        for (psi, mult), block in zip(ws.orbits, stack):
            for i, (dim, P) in enumerate(projectors[psi]):
                sv = np.linalg.svd(block @ P, compute_uv=False)
                above = int(np.sum(sv > 1.0 + TIE_RTOL * top))
                assert above % dim == 0
                total += mult * above
                symmetric += mult * above * (i == 0)
        count = count_eigenvalues_below(spec, z, ws)
        assert total == count
        counts.append(count)
        Y = ws._sector_rows(z)[0]
        full2 = threebody._row_norms(ws, Y)
        norms = [sum(full2[k] for k in m) / len(m) for m in ws.orbit_members]
        fallbacks += sum(ws._whole is not None and np.shares_memory(b, ws._whole)
                         for b, _ in ws._count_blocks(Y, norms))
        if case in ("resonance_strong", "eigenvalue_case"):
            assert symmetric == count
        elif case == "edge-peaked" and s < 1.0:
            assert symmetric < count
    assert fallbacks > 0 if case in ("overcoupled", "edge-peaked") else fallbacks == 0
    assert counts == {"resonance_strong": [1, 9, 9], "eigenvalue_case": [0, 1, 1],
                      "overcoupled": [1, 9, 9], "edge-peaked": [1, 7, 7]}[case]


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("case", ["resonance_strong", "eigenvalue_case", "weights-1-1-2"])
def test_symmetric_plans_are_the_trivial_irrep_blocks(case, n):
    """For every orbit slot psi, the block _plan_block forms from the rows D
    on _symmetric_plan(psi) has the nonzero singular values of B_psi P, P
    the projector on the trivial irrep of the little group of psi, to 1e-12
    relative (|G| = 6 on resonance_strong, 2 on the others); and on the plan
    of the identity it is B_psi with its rows permuted.  B_psi is built
    without the workspace's passes (_reference_sector_blocks)."""
    spec = _evidence_model(case, n)
    ws = _BSWorkspace(spec)
    assert len(ws.group) == (6 if case == "resonance_strong" else 2)
    z = spec.m - 1e-2
    ref, _, _, top = _reference_sector_blocks(spec, ws, z)
    Y = ws._sector_rows(z)[0]
    M = len(ws.r)
    gather = np.empty(2 * Y[0].size)
    for psi in ws.orbit_slots:
        plan = ws._symmetric_plan(psi)
        B = threebody._plan_block(Y, plan, np.empty((plan[0], plan[0])), gather)
        sv = np.linalg.svd(ref[psi] @ _irrep_projectors(ws, psi)[0][1], compute_uv=False)
        assert np.max(np.abs(np.linalg.svd(B, compute_uv=False) - sv[:plan[0]])) <= 1e-12 * sv[0]
        assert np.all(sv[plan[0]:] <= 1e-12 * sv[0])
        plan = ws._symmetric_plan(psi, [0])
        assert plan[0] == M and np.array_equal(np.sort(plan[2]), np.arange(M))
        whole = threebody._plan_block(Y, plan, np.empty((M, M)), gather)
        assert np.max(np.abs(whole - ref[psi][plan[2]])) <= 1e-13 * top


@pytest.mark.parametrize("case", ["sin-0-1", "eigenvalue_case", "const"])
def test_labels_follow_the_flip_bits(case):
    """The flip labels index flips(), whose order is the bits of the label
    over the axes A, A[0] the top bit: labels, chi and orbits equal that bit
    formula (the flip k moved by s sets bit s[a] for each set bit a of k;
    chi_alpha sets the bits of the axes on which phi_alpha is odd; the
    orbits are (smallest label, size) in label order)."""
    n = 8
    spec = (_evidence_model(case, n) if case == "eigenvalue_case"
            else builtin_model(n, 0.0, 0.0, **ORBIT_MODELS[case][0]))
    ws = _BSWorkspace(spec)
    axes, flips = ws.axes, range(2 ** len(ws.axes))
    bit = {a: 1 << (len(axes) - 1 - i) for i, a in enumerate(axes)}
    assert ws.flips() == [tuple(a for a in axes if k & bit[a]) for k in flips]
    labels = [[sum(bit[s[a]] for a in axes if k & bit[a]) for k in flips] for s in ws.group]
    assert ws.labels.tolist() == labels
    phi = [spec.phi_values(alpha).reshape((n,) * 3) for alpha in (1, 2)]
    chi = tuple(sum(bit[a] for a in axes if has_flip_parity(v, a, -1)) for v in phi)
    assert ws.chi == chi == {"sin-0-1": (4, 2), "eigenvalue_case": (4, 0), "const": (0, 0)}[case]
    orbits = {}
    for k in flips:
        first = min(row[k] for row in labels)
        orbits[first] = orbits.get(first, 0) + 1
    assert ws.orbits == tuple(orbits.items())
    assert ws.orbit_slots == [k for k, _ in ws.orbits]


PARENT_HS_SWEEP_N12 = [     # builtin_critical, delta = 1, m - z = geomspace(1e-4, 1e-1, 16)
    (2.262112070987182, 1.9505228536864223), (2.2617276006234, 1.9503422037029847),
    (2.2611190377019423, 1.9500562419077023), (2.2601564883510497, 1.9496038972555823),
    (2.2586358475617763, 1.9488891644897655), (2.256238012947625, 1.9477618356299986),
    (2.252468068698673, 1.945988652318929), (2.246568121732372, 1.9432116341826622),
    (2.2374008532098277, 1.9388914556162617), (2.2233140197550534, 1.9322386381023746),
    (2.2020296436417404, 1.9221475917550577), (2.1706655284543324, 1.9071699019099733),
    (2.126074035425771, 1.885581656205768), (2.065667147559857, 1.8555697861802645),
    (1.9885644852048119, 1.8154257221117596), (1.8962085895263352, 1.763473382513162),
]


def test_hs_support_kept_per_workspace(monkeypatch):
    """16 hs_diagnostics calls on one workspace with one Hessian object and
    cutoff test the kernel support once, and return the parent's values bit
    for bit; another cutoff or Hessian object takes it again."""
    spec = _evidence_model("builtin_critical", 12)
    hess, ws = hessian_at_minimum(spec), _BSWorkspace(spec)
    support, calls = threebody._kernel_support, []
    monkeypatch.setattr(threebody, "_kernel_support",
                        lambda *a: calls.append(a[2]) or support(*a))
    got = [hs_diagnostics(spec, spec.m - s, 1.0, hess, ws) for s in np.geomspace(1e-4, 1e-1, 16)]
    assert got == PARENT_HS_SWEEP_N12
    assert calls == [1.0]
    hs_diagnostics(spec, spec.m - 1e-2, 3.0, hess, ws)
    hs_diagnostics(spec, spec.m - 1e-2, 3.0, dataclasses.replace(hess), ws)
    assert calls == [1.0, 3.0, 3.0]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_nonfinite_points_refused(spec8, value):
    """A spectral point that is not finite is refused at every entry point:
    z for the count and the HS diagnostics, m - z for count_report."""
    for entry in (count_eigenvalues_below, hs_diagnostics):
        with pytest.raises(OutOfDomainError):
            entry(spec8, value)
    with pytest.raises(ModelDataError):
        count_report(spec8, [1e-1, value])


def test_fallback_sweep_forms_one_whole_block(monkeypatch):
    """A sweep over the overcoupled model at n = 12, whose trivial orbit
    fails the rest certificate, allocates the whole M x M block once per
    workspace.  The whole block needs the dense SVD, which copies it, so the
    charge is nbytes + 2 x 8 M^2 and the sweep peaks within 1.05 times it."""
    spec = _fallback_model("overcoupled")
    ws = _BSWorkspace(spec)
    M = len(ws.r)
    charges, require = [], threebody.require_memory
    monkeypatch.setattr(threebody, "require_memory",
                        lambda nbytes, what: charges.append(nbytes) or require(nbytes, what))
    s_vals = [1.0, 1e-2, 1e-4, 1e-6]
    rep = count_report(spec, s_vals)
    assert list(rep.counts) == [1, 9, 9, 9]
    assert charges == [ws.nbytes, ws.nbytes + 2 * 8 * M * M]
    whole = []
    for s in s_vals:
        count_eigenvalues_below(spec, spec.m - s, ws)
        whole.append(ws._whole)
    assert whole[0] is None and whole[-1] is not None
    assert all(w is whole[-1] for w in whole[1:])
    monkeypatch.undo()
    peak = traced_peak(lambda: count_report(spec, s_vals))
    assert peak <= 1.05 * (ws.nbytes + 2 * 8 * M * M)


def test_whole_block_refused_over_the_limit(monkeypatch):
    """With the limit at nbytes + 1, or at nbytes + 8 M^2 (room for the
    whole block but not for the dense SVD's copy of it), the workspace
    fits, and the first failed certificate raises ResourceCapError before
    the whole block exists: the row peaks less than 8 M^2 bytes above
    nbytes."""
    spec = _fallback_model("overcoupled")
    ws = _BSWorkspace(spec)
    block = 8 * len(ws.r) ** 2
    z = spec.m - 1e-6

    def count():
        with pytest.raises(ResourceCapError, match="whole sector block"):
            count_eigenvalues_below(spec, z, ws)
    for extra in (1, block):
        monkeypatch.setattr(errors, "MEMORY_LIMIT_BYTES", ws.nbytes + extra)
        peak = traced_peak(count)
        assert ws._whole is None
        assert peak < ws.nbytes + block
