"""Dense reference computations for the three-body tests.

These are dense references: the Nystrom matrix of T(z) with its cross block
materialized, the direct n^6 Hamiltonian and the sparse sandwich blocks
Phi_a R0(z) Phi_b*.  They are built from the package's pair energies
(`pair_matrix`) and form factors (`phi_values`) only, never from its
workspace, sector pass or counting kernel, so the package's counts can be
checked against them; the determinant identity compares the sandwich blocks
with the package's `lambda_on_grid`, which it checks.  Unlike `helpers.py`,
they share the package's pair-energy and form-factor evaluators.  Each
assembly checks the bytes it is about to allocate with the package's
`require_memory` first.
"""
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import scipy.sparse as sp

from lattice3b import lambda_on_grid
from lattice3b.errors import (InvalidSpectralPointError, OutOfDomainError,
                              require_memory)
from lattice3b.model import pair_matrix
from lattice3b.threebody import TIE_RTOL


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


def assemble_bs_matrix(spec, z: float) -> BSMatrix:
    """Build the symmetric Nystrom matrix of T(z) (cross block materialized)
    from the full pair matrix.

    Requires z < m and positive determinants at every node; sized as the
    2N x 2N doubles of its full() matrix.
    """
    if z >= spec.m:
        raise OutOfDomainError(f"z = {z} is not below the threshold m = {spec.m}")
    require_memory(8 * (2 * spec.grid.size) ** 2,
                   "dense T(z) (count_report works blockwise)")
    R = 1.0 / (pair_matrix(spec) - z)           # R[t, p], first slot of u first
    w = spec.grid.weight
    f1, f2 = spec.phi_values(1), spec.phi_values(2)
    d1 = 1.0 - spec.mu1 * w * (f1 ** 2 @ R)
    d2 = 1.0 - spec.mu2 * w * (R @ f2 ** 2)
    if d1.min() <= 0.0 or d2.min() <= 0.0:
        raise InvalidSpectralPointError(f"nonpositive determinant at z = {z}")
    row = np.sqrt(spec.mu1 * spec.mu2) * w * f2 / np.sqrt(d1)
    return BSMatrix(z=float(z), block12=row[:, None] * R.T * (f1 / np.sqrt(d2))[None, :])


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


def assemble_direct_hamiltonian(spec) -> np.ndarray:
    """Dense n^6 Hamiltonian: diag(u) minus the two Nystrom rank-n^3 potentials.

    The quadrature-weight normalization makes each potential the Nystrom image
    of phi (x) phi, so its eigenvalue counts match the sandwich-operator counts
    exactly on the same grid.
    """
    N = spec.grid.size
    require_memory(3 * 8 * N ** 4, "direct Hamiltonian (H and its two np.kron terms)")
    U = pair_matrix(spec)
    H = np.diag(U.ravel())      # row-major: index = (t-slot, q-slot)
    w = spec.grid.weight
    f1 = spec.phi_values(1)
    f2 = spec.phi_values(2)
    H -= spec.mu1 * np.kron(w * np.outer(f1, f1), np.eye(N))
    H -= spec.mu2 * np.kron(np.eye(N), w * np.outer(f2, f2))
    return H


def direct_count_below(spec, z_values) -> list[int]:
    """Eigenvalue counts of the dense Hamiltonian below each z, one eigensolve
    per symmetry sector of the flips the Hamiltonian commutes with
    (hamiltonian_flips); the full solve when it commutes with none."""
    flips = hamiltonian_flips(spec)
    ev = (np.concatenate([np.linalg.eigvalsh(b) for b in sector_hamiltonians(spec, flips)])
          if len(flips) > 1 else np.linalg.eigvalsh(assemble_direct_hamiltonian(spec)))
    return [int(np.sum(ev < z)) for z in np.atleast_1d(z_values)]


def _node_flip(n: int, axes) -> np.ndarray:
    """The node permutation that negates the coordinates on `axes`: the
    reversal of those axes of the (n, n, n) node order (see grids)."""
    return np.flip(np.arange(n ** 3).reshape((n,) * 3), axes).ravel()


def hamiltonian_flips(spec) -> list:
    """The axis sets k (k = () first) whose flip R_k of both momenta, (t, q)
    -> (k t, k q), commutes with the direct Hamiltonian, read off its parts
    by the exact check H[P_k][:, P_k] == H on each: diag(u), and the rank
    terms w phi_a phi_a^T of both channels.  They form a subgroup of Z2^3."""
    n = spec.grid.n
    U = pair_matrix(spec)
    W = [np.outer(spec.phi_values(a), spec.phi_values(a)) for a in (1, 2)]
    found = []
    for k in (ax for r in range(4) for ax in combinations(range(3), r)):
        P = _node_flip(n, k)
        if all(np.array_equal(X[np.ix_(P, P)], X) for X in [U] + W):
            found.append(k)
    return found


def sector_hamiltonians(spec, flips):
    """The blocks of the direct Hamiltonian on the sectors of the characters
    psi of the flip group `flips` (hamiltonian_flips), dense, one at a time,
    each built from diag(u) and the two rank terms, never from the n^6
    matrix; sized as three blocks (the base, a block and a np.kron term).

    The group acts freely on the node pairs (the shifted grid has no zero
    coordinate), so a sector's rows are the pairs (t, q) with t the smallest
    node of its orbit, N^2 / |group| of them, and its block is
    sum_k psi(k) H[(t, q), R_k (t', q')]: u(t, q) on the diagonal (only k = ()
    maps a row onto a row), minus mu1 w sum_k psi(k) phi1(t) phi1(k t')
    [q = k q'] and minus mu2 w [t = t'] phi2(q) phi2(q') (only k = () keeps
    t')."""
    N, w = spec.grid.size, spec.grid.weight
    P = {k: _node_flip(spec.grid.n, k) for k in flips}
    T = np.flatnonzero(np.all(np.array(list(P.values())) >= np.arange(N), axis=0))
    require_memory(3 * 8 * (T.size * N) ** 2, "direct Hamiltonian sector blocks")
    f1, f2 = spec.phi_values(1), spec.phi_values(2)
    base = np.diag(pair_matrix(spec)[T].ravel())
    base -= spec.mu2 * np.kron(np.eye(T.size), w * np.outer(f2, f2))
    # the characters of the group: psi_m(k) = (-1)^|m & k|, one per class of m
    chars = {tuple((-1) ** len(set(m) & set(k)) for k in flips): None
             for m in (ax for r in range(4) for ax in combinations(range(3), r))}
    for psi in chars:
        H = base.copy()
        for sign, k in zip(psi, flips):
            H -= sign * spec.mu1 * np.kron(w * np.outer(f1[T], f1[P[k][T]]), np.eye(N)[P[k]])
        yield H


def sandwich_blocks(spec, z: float) -> dict:
    """{(a, b): sqrt(mu_a mu_b) Phi_a R0(z) Phi_b*} for the channels a, b in
    {1, 2}, dense N x N: the quadrature-symmetrized blocks of the sandwich
    M(z), with Phi_1 = sqrt(w) phi_1 (x) I and Phi_2 = I (x) sqrt(w) phi_2 in
    sparse form and R0(z) = diag(1 / (u - z)) on the N^2 node pairs.

    Sized per pair entry: R0 (8 bytes), Phi_1 and Phi_2 in CSR (12 each),
    three dense blocks (8 each) while the fourth is formed through Phi_a R0
    and Phi_a R0 Phi_b* in CSR (12 each) and two dense temporaries (8 each).
    The traced peak is 88 bytes per entry at n in {6, 8, 10, 12}.
    """
    N = spec.grid.size
    require_memory((8 + 2 * 12 + 3 * 8 + 2 * 12 + 2 * 8) * N * N, "sandwich blocks")
    sw = np.sqrt(spec.grid.weight)
    Phi = {1: sp.kron(sp.csr_matrix(sw * spec.phi_values(1)[None, :]), sp.eye(N), format="csr"),
           2: sp.kron(sp.eye(N), sp.csr_matrix(sw * spec.phi_values(2)[None, :]), format="csr")}
    R0 = sp.diags(1.0 / (pair_matrix(spec).ravel() - z))
    return {(a, b): np.sqrt(spec.mu(a) * spec.mu(b)) * (Phi[a] @ R0 @ Phi[b].T).toarray()
            for a in (1, 2) for b in (1, 2)}


def finite_dim_bs_identity_check(spec, z: float) -> float:
    """Max residual of  I - mu_a Phi_a R0(z) Phi_a* = D_a(z)  at matched quadrature.

    The left side reads the diagonal sandwich blocks (sqrt(mu_a^2) = mu_a
    exactly in IEEE arithmetic); the right side is the diagonal of determinant
    values from the package's lambda_on_grid, the flip-reduced resolvent sums.
    Exact up to rounding, for every z below the grid spectrum.
    """
    if z >= spec.m:
        raise OutOfDomainError(f"z = {z} is not below the threshold m = {spec.m}")
    N = spec.grid.size
    blocks = sandwich_blocks(spec, z)
    worst = 0.0
    for alpha in (1, 2):
        lhs = np.eye(N) - blocks[alpha, alpha]
        rhs = np.diag(1.0 - spec.mu(alpha) * lambda_on_grid(spec, alpha, z))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst
