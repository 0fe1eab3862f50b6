"""Three-body machinery: the sandwich (Birman-Schwinger) operator T(z), counting
N(z) = n(1, T(z)), a direct dense Hamiltonian oracle, the essential-spectrum
scan and Hilbert-Schmidt diagnostics.

T(z) has zero diagonal blocks and cross kernel

    T12(q, t) = sqrt(mu1 mu2) Delta1(q,z)^{-1/2} phi2(q) phi1(t)
                Delta2(t,z)^{-1/2} / (u(t, q) - z),

discretized by weight-symmetrized Nystrom on the shifted grid, so eigenvalue
counts match dense-Hamiltonian counts exactly at matched discretization.

N(z) is the number of singular values of the N x N cross block above 1
(within 1e-12 times the largest singular value counts as not above).  The
shifted grid has no zero coordinate, so the per-axis flips act freely on it.
On the flip axes A of a model (`_flip_axes`: the builtin separable pair
energy, invariant under flipping both momenta on any axis, and form factors
with a parity on that axis, read off the grid values) T(z) commutes with the
group Z2^A, and the cross block splits exactly into 2^|A| blocks of N/2^|A|
rows built from the pair energies between representatives positive on A.
The count runs on those blocks.  Lambda_alpha(p, z) and Delta_alpha(p, z) are
flip-invariant, so the determinants, `lambda_on_grid`, the essential-spectrum
bisection and `validate`'s Lambda maximum are summed on the representatives
from the same resolvent and spread to all nodes.  The full cross block is the
case A = (): one block over all nodes, which is what tabulated or custom
dispersions and form factors without any axis parity run on, and what the HS
diagnostics and the dense assembly always use.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import svds

from .errors import (InvalidSpectralPointError, ModelDataError,
                     OutOfDomainError, ResourceCapError)
from .grids import TWO_PI
from .model import HessianData, ModelSpec, pair_matrix
from .reports import CountReport, EssentialSpectrumReport

# dense materialization / direct-Hamiltonian caps
DENSE_BS_DIM_CAP = 16384
DIRECT_DIM_CAP = 50000
# eigenvalues this close to the counting threshold (relative to ||B||) count as below
TIE_RTOL = 1e-12


@dataclass(frozen=True)
class BSMatrix:
    """Nystrom discretization of T(z): symmetric, zero diagonal blocks."""

    z: float
    block12: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return 2 * self.block12.shape[0]

    def full(self) -> np.ndarray:
        N = self.block12.shape[0]
        out = np.zeros((2 * N, 2 * N))
        out[:N, N:] = self.block12
        out[N:, :N] = self.block12.T
        return out

    def hs_norm(self) -> float:
        return float(np.sqrt(2.0) * np.linalg.norm(self.block12))


class _BSWorkspace:
    """Reusable arrays for a z-sweep on one model, built on first use.

    For flip axes A the cache holds the representatives (nodes positive on
    every axis of A; all nodes when A = ()), the 2^|A| arrays
    U_k[i, j] = u(k r_i, r_j) over the flips k on A, and one scratch stack.
    Counts, determinants and Lambda use the model's own axes `axes`; the HS
    diagnostics and the dense assembly use A = (), the full cross block.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.N = spec.grid.size
        self.f1 = spec.phi_values(1)
        self.f2 = spec.phi_values(2)
        self.w = spec.grid.weight
        self.axes = _flip_axes(spec)
        self._cache = {}        # axes -> (representatives, U stack, scratch)

    def _arrays(self, axes: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if axes not in self._cache:
            nodes = self.spec.grid.nodes
            reps = np.flatnonzero(np.all(nodes[:, list(axes)] > 0.0, axis=1))
            r = nodes[reps]
            U = np.empty((2 ** len(axes), reps.size, reps.size))
            for k, flip in enumerate(np.ndindex((2,) * len(axes))):
                sign = np.ones(3)
                sign[list(axes)] = 1 - 2 * np.array(flip)
                pair_matrix(self.spec, out=U[k], rows=r * sign, cols=r)
            self._cache[axes] = reps, U, np.empty_like(U)
        return self._cache[axes]

    def _resolvents(self, z, axes: tuple) -> tuple[np.ndarray, np.ndarray]:
        """(representatives, scratch stack overwritten with the character sums
        S_psi = sum_k psi(k) / (U_k - z) over the flips k on `axes`); S[0] is
        the plain sum, and for axes = () it is 1/(u - z) on all node pairs.
        z is a scalar, or one value per representative shaped (1, M) along the
        columns p or (M, 1) along the rows t."""
        reps, U, S = self._arrays(axes)
        np.subtract(U, z, out=S)
        if S.min() <= 0.0:
            raise OutOfDomainError(f"z = {np.max(z)} is not below the grid spectrum of u")
        np.reciprocal(S, out=S)
        # Walsh-Hadamard butterflies, one per flip axis; k and psi both index
        # the flip bits of the axes in order
        d, M = len(axes), reps.size
        H = S.reshape((2,) * d + (M, M))
        diff = np.empty((M, M) if d else 0)     # the full block (d = 0) needs none
        for a in range(d):
            for rest in np.ndindex((2,) * (d - 1)):
                lo = H[rest[:a] + (0,) + rest[a:]]
                hi = H[rest[:a] + (1,) + rest[a:]]
                np.subtract(lo, hi, out=diff)
                lo += hi
                hi[...] = diff
        return reps, S

    def _lambda(self, alpha: int, R: np.ndarray, reps: np.ndarray) -> np.ndarray:
        """Lambda_alpha on the representatives from a plain sum R[t, p] of
        1/(u - z): channel 1 integrates the first slot, channel 2 the second."""
        if alpha == 1:
            return self.w * (self.f1[reps] ** 2 @ R)
        return self.w * (R @ self.f2[reps] ** 2)

    def lambdas(self, alpha: int, z) -> np.ndarray:
        """Lambda_alpha(p, z) on the representatives p of the model's axes;
        z is a scalar or one value per representative."""
        z = np.asarray(z, dtype=float)
        if z.ndim:      # p is the second slot of u in channel 1, the first in 2
            z = z[None, :] if alpha == 1 else z[:, None]
        reps, S = self._resolvents(z, self.axes)
        return self._lambda(alpha, S[0], reps)

    def on_nodes(self, values: np.ndarray) -> np.ndarray:
        """Values on the representatives of the model's axes spread to all
        nodes: Lambda and Delta are invariant under the flips, so each node
        takes the value of its image."""
        n, h = self.spec.grid.n, self.spec.grid.n // 2
        ijk = np.unravel_index(np.arange(self.N), (n,) * 3)
        fold = np.ravel_multi_index(
            tuple(np.maximum(i, n - 1 - i) - h if a in self.axes else i
                  for a, i in enumerate(ijk)),
            tuple(h if a in self.axes else n for a in range(3)))
        return values[fold]

    def determinants(self, z: float) -> tuple[np.ndarray, np.ndarray]:
        """Delta_alpha(p, z) on all grid nodes; requires z < every u value."""
        reps, S = self._resolvents(z, self.axes)
        return tuple(self.on_nodes(1.0 - self.spec.mu(a) * self._lambda(a, S[0], reps))
                     for a in (1, 2))

    def blocks_into(self, z: float, axes: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Overwrite the scratch stack of `axes` with the 2^|A| blocks of
        T12(z); returns (stack, d1, d2), the determinants on the representatives.

        Blocks are indexed (t, p), first slot of u first, so for axes = () the
        cross block T12 is stack[0].T.  With u invariant under every flip k
        on A and phi_alpha(k q) = chi_alpha(k) phi_alpha(q), T12 maps the
        sector of the character psi onto that of psi chi_1 chi_2, and on the
        representatives its block is col(t) row(p) sum_k psi(k) chi_2(k) /
        (U_k[t, p] - z).  Multiplying by chi_2 only permutes the labels psi,
        so the blocks are the character sums scaled like the full block.
        """
        reps, S = self._resolvents(z, axes)
        f1, f2 = self.f1[reps], self.f2[reps]
        d1, d2 = (1.0 - self.spec.mu(a) * self._lambda(a, S[0], reps) for a in (1, 2))
        if d1.min() <= 0.0 or d2.min() <= 0.0:
            raise InvalidSpectralPointError(
                f"nonpositive determinant at z = {z} "
                f"(min d1 = {d1.min():.3e}, min d2 = {d2.min():.3e}); "
                f"z is not below the channel branches")
        scale = np.sqrt(self.spec.mu1 * self.spec.mu2) * self.w
        S *= (f1 / np.sqrt(d2))[:, None]            # t: spectator of channel 2
        S *= (scale * f2 / np.sqrt(d1))[None, :]    # p: spectator of channel 1
        return S, d1, d2


def _flip_axes(spec: ModelSpec) -> tuple:
    """Axes on which T(z) commutes with flipping both momenta.

    The shifted grid has no zero coordinate, so the flips act freely on it.
    An axis counts when the pair energy is the builtin separable sum
    (invariant under flipping both momenta on any axis) and both form factors
    have a parity on that axis, read off their grid values with the tolerance
    of the model's own parity check.  () for any other model.
    """
    pair = spec.pair
    if not (pair.form == "sum-of-dispersions" and pair.dispersion.separable):
        return ()

    def has_parity(vals: np.ndarray, axis: int) -> bool:
        flipped = vals[spec.grid.reflection_index((axis,))]
        tol = 1e-9 * max(1.0, np.max(np.abs(vals)))
        return min(np.max(np.abs(flipped - vals)), np.max(np.abs(flipped + vals))) <= tol

    phis = [spec.phi_values(alpha) for alpha in (1, 2)]
    return tuple(axis for axis in range(3) if all(has_parity(v, axis) for v in phis))


def assemble_bs_matrix(spec: ModelSpec, z: float) -> BSMatrix:
    """Build the symmetric Nystrom matrix of T(z) (cross block materialized).

    Requires z < m and positive determinants at every node; raises the
    resource-cap error when the full matrix would exceed the dense cap.
    """
    if z >= spec.m:
        raise OutOfDomainError(f"z = {z} is not below the threshold m = {spec.m}")
    if 2 * spec.grid.size > DENSE_BS_DIM_CAP:
        raise ResourceCapError(
            f"dense T(z) would have dimension {2 * spec.grid.size} > {DENSE_BS_DIM_CAP}; "
            f"use count_eigenvalues_below / count_report, which work blockwise")
    stack, _, _ = _BSWorkspace(spec).blocks_into(z, ())
    return BSMatrix(z=float(z), block12=stack[0].T.copy())


def count_above(matrix: np.ndarray, lam: float) -> int:
    """Number of eigenvalues of a symmetric matrix strictly above lam.

    Eigenvalues within TIE_RTOL * ||B|| of lam count as not above.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"need a square matrix, got shape {matrix.shape}")
    scale = float(np.max(np.abs(matrix))) if matrix.size else 0.0
    if not np.allclose(matrix, matrix.T, atol=1e-12 * max(1.0, scale), rtol=0.0):
        raise ValueError("matrix is not symmetric")
    if matrix.size == 0:
        return 0
    ev = np.linalg.eigvalsh(matrix)
    tie = TIE_RTOL * max(np.abs(ev[0]), np.abs(ev[-1]))
    return int(np.sum(ev > lam + tie))


def _count_block_singular_above(block: np.ndarray, mu: float) -> int:
    """#{singular values > mu} of one block, or of the block-diagonal sum of a
    stack of blocks.

    Values within TIE_RTOL times the largest singular value of the whole count
    as not above.
    """
    blocks = block[None] if block.ndim == 2 else block
    sv = [_leading_singular_values(b, mu) for b in blocks]
    top = max((float(v.max()) for v in sv if v.size), default=0.0)
    return int(sum(np.sum(v > mu + TIE_RTOL * top) for v in sv))


def _leading_singular_values(block: np.ndarray, mu: float) -> np.ndarray:
    """Every singular value of block above mu and at least one that is not
    (or as many as Lanczos can give); empty when ||block||_F <= mu.

    Dense SVD on small blocks, else Lanczos from k = 8 with a fixed start
    vector, doubling k until a value at or below mu is in.
    """
    N = min(block.shape)
    if float(np.linalg.norm(block)) <= mu:      # sigma_max <= Frobenius norm
        return np.empty(0)
    if N <= 600:
        return np.linalg.svd(block, compute_uv=False)
    k = 8
    v0 = np.random.default_rng(0).standard_normal(block.shape[1])
    while True:
        k_eff = min(k, N - 1)
        sv = svds(block, k=k_eff, v0=v0, return_singular_vectors=False, tol=1e-10)
        if sv.min() <= mu + TIE_RTOL * sv.max() or k_eff == N - 1:
            return sv
        k *= 2


def count_eigenvalues_below(spec: ModelSpec, z: float,
                            workspace: Optional[_BSWorkspace] = None) -> int:
    """N(z) = n(1, T(z)): eigenvalues of H below z, via the sandwich operator.

    The spectrum of T is +/- the singular values of its cross block, so this
    counts block singular values above 1 over the blocks of the model's flip
    axes (one full cross block when it has none).
    """
    if z >= spec.m:
        raise OutOfDomainError(f"z = {z} is not below the threshold m = {spec.m}")
    ws = workspace if workspace is not None else _BSWorkspace(spec)
    stack, _, _ = ws.blocks_into(z, ws.axes)
    return _count_block_singular_above(stack, 1.0)


def assemble_direct_hamiltonian(spec: ModelSpec) -> np.ndarray:
    """Dense n^6 Hamiltonian: diag(u) minus the two Nystrom rank-n^3 potentials.

    The quadrature-weight normalization makes each potential the Nystrom image
    of phi (x) phi, so its eigenvalue counts match the sandwich-operator counts
    exactly on the same grid.
    """
    N = spec.grid.size
    if N * N > DIRECT_DIM_CAP:
        raise ResourceCapError(
            f"direct Hamiltonian dimension {N * N} exceeds cap {DIRECT_DIM_CAP}")
    U = pair_matrix(spec)
    H = np.diag(U.ravel())      # row-major: index = (t-slot, q-slot)
    w = spec.grid.weight
    f1 = spec.phi_values(1)
    f2 = spec.phi_values(2)
    H -= spec.mu1 * np.kron(w * np.outer(f1, f1), np.eye(N))
    H -= spec.mu2 * np.kron(np.eye(N), w * np.outer(f2, f2))
    return H


def direct_count_below(spec: ModelSpec, z_values) -> list[int]:
    """Eigenvalue counts of the dense Hamiltonian below each z (one eigensolve)."""
    ev = np.linalg.eigvalsh(assemble_direct_hamiltonian(spec))
    return [int(np.sum(ev < z)) for z in np.atleast_1d(z_values)]


def finite_dim_bs_identity_check(spec: ModelSpec, z: float) -> float:
    """Max residual of  I - mu_a Phi_a R0(z) Phi_a* = D_a(z)  at matched quadrature.

    The operators are materialized sparsely and multiplied out; the right side
    is the diagonal of determinant values from lambda_on_grid, the flip-reduced
    resolvent sums.  Exact up to rounding, for every z below the grid spectrum.
    """
    if z >= spec.m:
        raise OutOfDomainError(f"z = {z} is not below the threshold m = {spec.m}")
    N = spec.grid.size
    if N * N > 4_000_000:
        raise ResourceCapError(f"identity check materializes N^2 = {N * N} resolvent entries")
    U = pair_matrix(spec)
    sw = np.sqrt(spec.grid.weight)
    R0 = sp.diags(1.0 / (U.ravel() - z))
    worst = 0.0
    for alpha, f in ((1, spec.phi_values(1)), (2, spec.phi_values(2))):
        if alpha == 1:
            Phi = sp.kron(sp.csr_matrix(sw * f[None, :]), sp.eye(N), format="csr")
        else:
            Phi = sp.kron(sp.eye(N), sp.csr_matrix(sw * f[None, :]), format="csr")
        lhs = np.eye(N) - spec.mu(alpha) * (Phi @ R0 @ Phi.T).toarray()
        rhs = np.diag(1.0 - spec.mu(alpha) * lambda_on_grid(spec, alpha, z))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def lambda_on_grid(spec: ModelSpec, alpha: int, z: float) -> np.ndarray:
    """Lambda_alpha(p, z) for every grid node p at once, summed on the
    representatives of the model's flip axes (see _BSWorkspace)."""
    ws = _BSWorkspace(spec)
    return ws.on_nodes(ws.lambdas(alpha, z))


def essential_spectrum(spec: ModelSpec) -> EssentialSpectrumReport:
    """Band [m, M] plus the channel-eigenvalue branches over the p-grid.

    Only branch values strictly below m are reported: they are the part of the
    channel spectrum outside the band (and the only part that can move the
    lower edge).  Roots inside [m, M] are absorbed by the band and, on a grid,
    are dominated by the nodal-minimum quadrature spike anyway.
    """
    ws = _BSWorkspace(spec)
    branches = {alpha: _channel_roots_on_grid(ws, alpha) if spec.mu(alpha) > 0
                else np.full(spec.grid.size, np.nan) for alpha in (1, 2)}
    finite = np.concatenate([b[np.isfinite(b)] for b in branches.values()])
    lower = float(min(spec.m, finite.min())) if finite.size else float(spec.m)
    return EssentialSpectrumReport(
        band=(float(spec.m), float(spec.M)), branch_values=branches,
        lower_edge=lower,
        meta={"grid_n": spec.grid.n, "mu1": spec.mu1, "mu2": spec.mu2})


def _channel_roots_on_grid(ws: _BSWorkspace, alpha: int) -> np.ndarray:
    """Vectorized bisection of Delta_alpha(p, .) = 0 below m over the
    representatives p of the model's flip axes, spread to all nodes."""
    spec = ws.spec
    mu = spec.mu(alpha)
    # min over t of u_p(t): t runs over the flips k of every representative,
    # the first slot (U_k rows) in channel 1 and the second in channel 2
    _, U, _ = ws._arrays(ws.axes)
    vals_min = U.min(axis=(0, 1) if alpha == 1 else (0, 2))
    # bracket top just below the three-body threshold: quadrature sums are
    # finite there (every node value exceeds m) and roots above m are not
    # reported (they sit inside the band)
    top = spec.m - 1e-12 * max(1.0, abs(spec.m))
    phi2max = float(np.max(spec.phi_values(alpha) ** 2))
    lo = vals_min - (spec.M - spec.m) - mu * TWO_PI ** 3 * phi2max
    has_root = 1.0 - mu * ws.lambdas(alpha, top) < 0.0
    out = np.full(vals_min.size, np.nan)
    if has_root.any():
        a, b = lo, np.full(vals_min.size, top)
        for _ in range(60):
            c = 0.5 * (a + b)
            pos = 1.0 - mu * ws.lambdas(alpha, c) > 0.0
            a = np.where(pos, c, a)
            b = np.where(pos, b, c)
            if float(np.max(b - a)) < 1e-10:
                break
        out[has_root] = (0.5 * (a + b))[has_root]
    return ws.on_nodes(out)


def model_kernel_block(spec: ModelSpec, hess: HessianData, s: float,
                       delta: float = 1.0,
                       rows: slice | None = None) -> np.ndarray:
    """Nystrom block of the threshold model kernel T(delta; s), cross entry only.

    d0 chi(p) chi(q) (n1 (Up,p) + 2s)^{-1/4} (n2 (Uq,q) + 2s)^{-1/4}
       / (l1 (Up,p) + 2 l (Up,q) + l2 (Uq,q) + 2s),
    with chi the indicator of |U^{1/2} p| < delta and everything evaluated on
    the grid nodes (weight-symmetrized).
    """
    nodes = spec.grid.nodes
    r = nodes if rows is None else nodes[rows]
    Uh = hess.U
    d0 = np.sqrt(hess.detU) / (2 * np.pi ** 2) * (hess.l1 * hess.l2) ** 0.75
    quad_r = np.einsum("ij,jk,ik->i", r, Uh, r)
    quad_c = np.einsum("ij,jk,ik->i", nodes, Uh, nodes)
    chi_r = (quad_r < delta * delta).astype(float)
    chi_c = (quad_c < delta * delta).astype(float)
    num_r = chi_r * (hess.n1 * quad_r + 2 * s) ** -0.25
    num_c = chi_c * (hess.n2 * quad_c + 2 * s) ** -0.25
    cross = (r @ Uh) @ nodes.T
    den = (hess.l1 * quad_r[:, None] + 2 * hess.l * cross
           + hess.l2 * quad_c[None, :] + 2 * s)
    return spec.grid.weight * d0 * num_r[:, None] * num_c[None, :] / den


def _check_cutoff(delta: float) -> None:
    if not (np.isfinite(delta) and delta > 0):
        raise ModelDataError(f"cutoff delta must be finite and positive, got {delta}")


def hs_diagnostics(spec: ModelSpec, z: float, delta: float = 1.0,
                   hess: Optional[HessianData] = None,
                   workspace: Optional[_BSWorkspace] = None) -> tuple[float, float]:
    """(HS norm of T(z), HS norm of T(z) - T(delta; |m-z|)).

    The model kernel uses the Hessian structure at the minimum; extraction is
    done on demand when `hess` is not supplied.
    """
    from .model import hessian_at_minimum
    if z >= spec.m:
        raise OutOfDomainError(f"z = {z} is not below the threshold m = {spec.m}")
    _check_cutoff(delta)
    hess = hess if hess is not None else hessian_at_minimum(spec)
    ws = workspace if workspace is not None else _BSWorkspace(spec)
    stack, _, _ = ws.blocks_into(z, ())
    block = stack[0].T
    hs = np.sqrt(2.0) * float(np.linalg.norm(block))
    s = spec.m - z
    acc = 0.0
    step = max(1, (1 << 27) // (8 * ws.N))
    for i0 in range(0, ws.N, step):
        rows = slice(i0, min(ws.N, i0 + step))
        Mblk = model_kernel_block(spec, hess, s, delta, rows=rows)
        acc += float(np.sum((block[rows] - Mblk) ** 2))
    return hs, float(np.sqrt(2.0 * acc))


def trust_floor(n: int) -> float:
    """Smallest trusted m - z on an n^3 grid: (2 pi / n)^2 / 10."""
    return (2 * np.pi / n) ** 2 / 10.0


def count_report(spec: ModelSpec, m_minus_z, delta: float = 1.0,
                 with_hs: bool = True) -> CountReport:
    """Sweep N(z), determinant minima and HS diagnostics over a z-list."""
    from .errors import NotProductFormError
    from .model import hessian_at_minimum
    s_list = np.sort(np.unique(np.asarray(m_minus_z, dtype=float)))[::-1]
    if s_list.size == 0 or s_list.min() <= 0:
        raise ModelDataError("m - z values must be positive and nonempty")
    _check_cutoff(delta)
    ws = _BSWorkspace(spec)
    hess = None
    if with_hs:
        try:
            hess = hessian_at_minimum(spec)
        except NotProductFormError:
            with_hs = False     # e.g. tabulated models: HS columns stay NaN
    counts = np.empty(s_list.size, dtype=int)
    detmin = np.empty(s_list.size)
    hs = np.full(s_list.size, np.nan)
    hsd = np.full(s_list.size, np.nan)
    floor = trust_floor(spec.grid.n)
    for i, s in enumerate(s_list):
        z = spec.m - s
        # Delta is invariant under the flips, so its minimum over the
        # representatives is its minimum over all nodes
        stack, d1, d2 = ws.blocks_into(z, ws.axes)
        detmin[i] = min(float(d1.min()), float(d2.min()))
        counts[i] = _count_block_singular_above(stack, 1.0)
        if with_hs:
            hs[i], hsd[i] = hs_diagnostics(spec, z, delta, hess, ws)
    return CountReport(
        m_minus_z=s_list, counts=counts, det_min=detmin, hs_norm=hs, hs_diff=hsd,
        trusted=s_list >= floor,
        meta={"grid_n": spec.grid.n, "mu1": spec.mu1, "mu2": spec.mu2,
              "delta": delta, "trust_floor": floor, "tie_rtol": TIE_RTOL})
