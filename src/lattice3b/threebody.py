"""Three-body machinery: the sandwich (Birman-Schwinger) operator T(z), counting
N(z) = n(1, T(z)), the essential-spectrum scan and Hilbert-Schmidt
diagnostics.

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
rows built from the pair energies between representatives positive on A:
the product of per-axis node lists, the positive half on A, from which
pair_matrix builds each flipped U_k with the lists negated on k's flips.
The workspace forms the sector blocks in one pass over cache-sized column
slabs of its U stack (`_character_sums`): the resolvents 1/(U_k - z) of all
flips k in one buffer, then only the sector slots its caller reads, their
character sums R_psi = sum_k psi(k) R_k.  Lambda_alpha(p, z) and
Delta_alpha(p, z) are flip-invariant, so they come from the trivial slot
R_0 = sum_k R_k on the representatives; the determinants, `lambda_on_grid`
and `validate`'s Lambda maximum spread them to all nodes, and the count's
blocks scale only the formed slots.  The HS diagnostics read the sector
blocks by Parseval and pair them with the character sums of the threshold
model kernel's flipped blocks, built only on its support.  The
essential-spectrum bisection sums the flipped resolvents of a column-cut
stack.  The full cross block is the case A = (): one block over all nodes,
which is what tabulated or custom dispersions and form factors without any
axis parity run on.

Axis permutations that keep A, the axis weights and both form factors
(`_sector_orbits`) commute with T(z) and permute the flip labels, so the count
and the HS diagnostics run on one block per orbit, weighted by its size, and
the pass forms only those orbit blocks.

One kernel counts each block (`_leading_singular_values`): a Frobenius skip,
then a block Rayleigh-Ritz count certified by the Weyl bound, then the dense
spectrum.

The dense references these counts are checked against (the full Nystrom
matrix of T(z), the direct Hamiltonian and the determinant identity) are not
part of the package; they live with the tests, in tests/oracles.py.
"""
from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from itertools import permutations
from typing import Optional

import numpy as np

from .errors import (HypothesisViolationError, InvalidSpectralPointError,
                     ModelDataError, NotProductFormError, OutOfDomainError,
                     require_memory)
from .grids import TWO_PI, product_nodes
from .model import (HessianData, ModelSpec, grid_equal, has_flip_parity,
                    hessian_at_minimum, pair_matrix)
from .reports import CountReport, EssentialSpectrumReport

# eigenvalues this close to the counting threshold (relative to ||B||) count as below
TIE_RTOL = 1e-12
# columns per slab of the sector pass, whose buffer of 2^|A| x _SLAB
# resolvents (512 KB for three axes) stays in cache: forming the orbit blocks
# at M = 125, 343 and 1728 rows per block, 8192 ran fastest of 2048 to 32768,
# 4096 10-20% and 2048 up to 50% slower (one BLAS thread).  The blocks are
# scaled in row slabs of about that size.
_SLAB = 8192


class _BSWorkspace:
    """Reusable arrays for a z-sweep on one model, built on first use.

    For the model's flip axes A it holds the representatives r, the C-order
    product of the per-axis node `lists` (the positive half of the axis nodes
    on A, all nodes elsewhere; all nodes when A = ()), the 2^|A| arrays
    U_k[i, j] = u(k r_i, r_j) over the flips k on A and one scratch stack, of
    nbytes in all.  Counts, determinants, Lambda, the HS diagnostics and the
    essential bisection work in this one array set, with M x M temporaries:
    one pass over cache-sized slabs (sector_blocks) writes only the sector
    blocks a caller reads to the front of the scratch stack, Lambda and the
    determinants come from the trivial one, and only the formed blocks are
    scaled.  `orbits` holds (k, multiplicity) for each orbit of the flip
    labels under the model's axis permutations `group`, k the orbit's
    smallest label, and `orbit_slots` those labels k: the sector blocks a
    count reads.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.w = spec.grid.weight
        n, x = spec.grid.n, spec.grid.axis
        phi = [spec.phi_values(alpha).reshape((n,) * 3) for alpha in (1, 2)]
        self.axes, self.chi = _flip_axes(spec, phi)
        self.lists = [x[n // 2:] if a in self.axes else x for a in range(3)]
        self.r = product_nodes(self.lists)      # the representatives
        self.nbytes = 2 * 2 ** len(self.axes) * len(self.r) ** 2 * 8    # U and scratch
        require_memory(self.nbytes, f"count workspace on the {n}^3 grid")
        self.group, self.orbits = _sector_orbits(spec, self.axes, phi)
        self.orbit_slots = [k for k, _ in self.orbits]
        half = tuple(slice(n // 2, None) if a in self.axes else slice(None) for a in range(3))
        self.f1, self.f2 = (v[half].ravel() for v in phi)
        self._stacks = None     # (U stack, scratch stack)
        self._u_min = np.inf    # U's minimum, set with the stacks

    def flipped(self):
        """(k, the per-axis lists of the representatives flipped by k) for the
        flips k in bit order: negated on the axes of k's set bits."""
        for k, flip in enumerate(np.ndindex((2,) * len(self.axes))):
            neg = [a for a, f in zip(self.axes, flip) if f]
            yield k, [-x if a in neg else x for a, x in enumerate(self.lists)]

    @cached_property
    def flipped_nodes(self) -> np.ndarray:
        """The representatives flipped by k, k r, stacked over the flips k."""
        return np.stack([product_nodes(lists) for _, lists in self.flipped()])

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._stacks is None:
            M = len(self.r)
            U = np.empty((2 ** len(self.axes), M, M))
            for k, t in self.flipped():
                pair_matrix(self.spec, out=U[k], rows=t, cols=self.lists)
            self._stacks = U, np.empty_like(U)
            self._u_min = float(U.min())
        return self._stacks

    def _character_sums(self, z: float, slots) -> np.ndarray:
        """The character sums of the resolvents 1/(U_k - z) in the front of
        the scratch stack, entry i for the label slots[i] (_character_sums).
        fl(u - z) <= 0 exactly when u <= z, so the domain check reads U's
        minimum instead of the differences."""
        U, S = self._arrays()
        if self._u_min <= z:
            raise OutOfDomainError(f"z = {z} is not below the grid spectrum of u")
        _character_sums(U, S, z, slots)
        return S[:len(slots)]

    def _lambda(self, alpha: int, S: np.ndarray) -> np.ndarray:
        """Lambda_alpha on the representatives from a stack of resolvents,
        summed over its slots: channel 1 sums the rows and leaves p on the
        columns, channel 2 the reverse, so the trivial slot S[:1] = R_0 gives
        Lambda on the representatives and a stack cut to some p gives it on
        those p."""
        if alpha == 1:
            return self.w * (self.f1 ** 2 @ S).sum(axis=0)
        return self.w * (S @ self.f2 ** 2).sum(axis=0)

    def lambdas(self, alpha: int, z: float) -> np.ndarray:
        """Lambda_alpha(p, z) on the representatives p of the model's axes."""
        return self._lambda(alpha, self._character_sums(z, [0]))

    def on_nodes(self, values: np.ndarray) -> np.ndarray:
        """Values on the representatives of the model's axes spread to all
        nodes: Lambda and Delta are invariant under the flips, so each node
        takes the value of its image, node i < n/2 on an axis of A that of
        node n - 1 - i, the reversed half prepended along that axis."""
        v = values.reshape([len(l) for l in self.lists])
        for a in self.axes:
            v = np.concatenate([np.flip(v, a), v], axis=a)
        return v.ravel()

    def determinants(self, z: float) -> tuple[np.ndarray, np.ndarray]:
        """Delta_alpha(p, z) on all grid nodes; requires z < every u value."""
        R0 = self._character_sums(z, [0])
        return tuple(self.on_nodes(1.0 - self.spec.mu(a) * self._lambda(a, R0))
                     for a in (1, 2))

    def sector_blocks(self, z: float, slots) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(stack, d1, d2): entry i of the stack, in the scratch stack, is the
        sector block B_psi = col(t) row(p) R_psi[t, p] of T12(z) for the
        label psi = slots[i] (slots[0] = 0), R_psi = sum_k psi(k) / (U_k[t, p]
        - z); d1 and d2 are the determinants on the representatives.

        Blocks are indexed (t, p), first slot of u first, so for A = () the
        cross block T12 is stack[0].T.  With u invariant under every flip k
        on A and phi_alpha(k q) = chi_alpha(k) phi_alpha(q), T12 maps the
        sector of the character psi onto that of psi chi_1 chi_2, and on the
        representatives its block is the character sum with psi chi_2 of the
        flipped blocks col row / (U_k - z).  Multiplying by chi_2 only
        permutes the labels psi, and col and row do not depend on k, so the
        sector blocks are col row times the character sums of the
        resolvents.  Lambda_alpha and the determinants come from the trivial
        one, R_0 = sum_k 1/(U_k - z); then only the formed blocks are
        scaled, row slab by row slab with the outer product of col and row.
        """
        S = self._character_sums(z, slots)
        d1, d2 = (1.0 - self.spec.mu(a) * self._lambda(a, S[:1]) for a in (1, 2))
        if d1.min() <= 0.0 or d2.min() <= 0.0:
            raise InvalidSpectralPointError(
                f"nonpositive determinant at z = {z} "
                f"(min d1 = {d1.min():.3e}, min d2 = {d2.min():.3e}); "
                f"z is not below the channel branches")
        scale = np.sqrt(self.spec.mu1 * self.spec.mu2) * self.w
        col = self.f1 / np.sqrt(d2)            # t: spectator of channel 2
        row = scale * self.f2 / np.sqrt(d1)    # p: spectator of channel 1
        M = len(row)
        step = max(1, _SLAB // M)       # rows of one slab of the outer product
        for i in range(0, M, step):
            S[:, i:i + step] *= np.multiply.outer(col[i:i + step], row)
        return S, d1, d2


@lru_cache(maxsize=None)
def _characters(n: int) -> np.ndarray:
    """The n x n +-1 character matrix of Z2^|A|, n = 2^|A| (read-only): entry
    (psi, k) is psi(k) = (-1)^popcount(psi & k), with psi and k both indexing
    the flip bits of the axes in order."""
    H = reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * (n.bit_length() - 1),
               np.ones((1, 1)))
    H.flags.writeable = False
    return H


def _character_sums(U: np.ndarray, S: np.ndarray, z: float, slots) -> None:
    """In place, S[i] becomes the character sum R_psi = sum_k psi(k) / (U_k -
    z) over the stack U_k of the flips k, for psi = slots[i]; the rest of S
    is scratch.

    One column slab of the flattened stacks at a time: the resolvents of
    every flip go to one buffer of 2^|A| x _SLAB doubles, and those rows of
    the character matrix times it go straight to S.  A slot's bits must not
    depend on which other slots are formed.  A row of a BLAS product of at
    least two rows and two columns is the same dot product over k whatever
    the other rows, but a one-row or one-column product takes the
    matrix-vector path, which rounds differently.  So a single slot is
    formed twice (into S[0] and S[1]: 2^|A| >= 2 slots), the last slab is
    moved back to hold two columns and a one-column stack (M = 1) is
    widened; with |A| = 0 the one product is exact (1.0 times the
    resolvent)."""
    n = len(U)
    rows = list(slots) * (2 if len(slots) == 1 and n > 1 else 1)
    H = _characters(n)[rows]
    X, Y = U.reshape(n, -1), S.reshape(n, -1)
    width = X.shape[1]
    buf = np.empty((n, min(_SLAB, width)))
    for j in range(0, width, _SLAB):
        j = max(0, min(j, width - 2))
        cols = slice(j, j + _SLAB)
        R = buf[:, :min(_SLAB, width - j)]
        np.subtract(X[:, cols], z, out=R)
        np.reciprocal(R, out=R)
        if width == 1:
            Y[:len(rows), cols] = (H @ np.repeat(R, 2, axis=1))[:, :1]
        else:
            np.matmul(H, R, out=Y[:len(rows), cols])


def _flip_axes(spec: ModelSpec, phi: list) -> tuple[tuple, tuple[int, int]]:
    """(A, (c1, c2)): the axes A on which T(z) commutes with flipping both
    momenta, and the labels of the parity characters chi_alpha of phi_alpha
    on A, whose flip bits are set on the axes where phi_alpha is odd.

    The shifted grid has no zero coordinate, so the flips act freely on it.
    An axis counts when the pair energy is the builtin separable sum
    (invariant under flipping both momenta on any axis) and both form factors
    have a parity on that axis, read off their (n, n, n) grid values phi by
    the model's own parity check, has_flip_parity.  A = () for any other
    model.
    """
    if not spec.pair.separable:
        return (), (0, 0)
    par = np.array([[next((sign for sign in (1, -1) if has_flip_parity(v, axis, sign)), 0)
                     for axis in range(3)] for v in phi])     # +1 even, -1 odd, 0 neither
    axes = tuple(int(a) for a in np.flatnonzero(np.all(par != 0, axis=0)))
    bits = 1 << np.arange(len(axes))[::-1]      # axis A[0] is the top flip bit
    return axes, tuple(int((p[list(axes)] < 0) @ bits) for p in par)


def _sector_orbits(spec: ModelSpec, axes: tuple,
                   phi: list) -> tuple[list, tuple[tuple[int, int], ...]]:
    """(group, orbits): the axis permutations s (axis a to s[a]) that map A
    onto A, keep the builtin axis weights exactly and leave the (n, n, n)
    grid values phi of both form factors unchanged, so that they commute with
    T(z), and the orbits of the flip labels under them, (smallest label,
    size) in label order.  A = () gives the trivial group."""
    if not axes:
        return [(0, 1, 2)], ((0, 1),)
    w = spec.pair.dispersion.axis_weights
    group = [s for s in permutations(range(3)) if {s[a] for a in axes} == set(axes)
             and all(w[s[a]] == w[a] for a in range(3))
             and all(grid_equal(v.transpose(s), v) for v in phi)]
    bit = {a: 1 << (len(axes) - 1 - i) for i, a in enumerate(axes)}    # A[0] on top
    orbits: dict[int, int] = {}
    for k in range(2 ** len(axes)):
        rep = min(sum(bit[s[a]] for a in axes if k & bit[a]) for s in group)
        orbits[rep] = orbits.get(rep, 0) + 1
    return group, tuple(orbits.items())


def _count_block_singular_above(stack: np.ndarray, mu: float,
                                mults: Optional[list] = None,
                                fro2: Optional[list] = None) -> int:
    """#{singular values > mu} of one block, or of the block-diagonal sum of a
    stack or list of blocks: every block once, or block i counted mults[i]
    times (the sizes of the sector orbits, see _BSWorkspace).  fro2[i], when
    given, is _squared_norm of block i, computed by the caller.

    Values within TIE_RTOL times the largest singular value of the whole count
    as not above; the certificates clear that band at the largest Frobenius
    norm, which bounds the largest singular value from above.
    """
    blocks = [stack] if isinstance(stack, np.ndarray) and stack.ndim == 2 else stack
    mults = mults if mults is not None else [1] * len(blocks)
    fro2 = fro2 if fro2 is not None else [_squared_norm(b) for b in blocks]
    band = TIE_RTOL * np.sqrt(max(fro2))
    sv = [(_leading_singular_values(b, mu, f2, band), mult)
          for b, mult, f2 in zip(blocks, mults, fro2)]
    top = max((float(v.max()) for v, _ in sv if v.size), default=0.0)
    return int(sum(mult * np.sum(v > mu + TIE_RTOL * top) for v, mult in sv))


def _squared_norm(X: np.ndarray) -> float:
    """||X||_F^2 summed row by row: relative rounding error below
    (rows + cols) u, u the unit roundoff, for any order of the sums."""
    return float(np.einsum("ij,ij->i", X, X).sum())


def _leading_singular_values(block: np.ndarray, mu: float, fro2: float,
                             band: float) -> np.ndarray:
    """Singular values of block that decide its count above mu: none when
    fro2 = ||block||_F^2 <= mu^2; else p Ritz values s (_ritz_bounds) whose
    count c = #{s > mu} is certified: c < p, s_{c+1} + rho <= mu (at most c
    values exceed mu) and s_c - r > mu + band (c values clear the tie band),
    with margin min(s_c - r - mu, mu - s_{c+1} - rho); p = 8 doubles while
    4 p is at most the rows and columns of the block (one Ritz step at p
    costs as much as the dense SVD from p = rows/3 to rows/2, and the doubling
    about twice its last step), and until every Ritz value exceeds mu at two
    p in a row; else the whole dense spectrum."""
    if np.sqrt(fro2) <= mu:      # sigma_max <= Frobenius norm
        return np.empty(0)
    p, full = 8, 0
    while 4 * p <= min(block.shape) and full < 2:
        s, rho, r = _ritz_bounds(block, p, fro2)
        c = int(np.sum(s > mu))
        if c < p and s[c] + rho <= mu and (c == 0 or s[c - 1] - r > mu + band):
            return s
        full = full + 1 if c == p else 0
        p *= 2
    return np.linalg.svd(block, compute_uv=False)


@lru_cache(maxsize=16)
def _test_matrix(cols: int, p: int) -> np.ndarray:
    """The Gaussian test matrix Omega of _ritz_bounds, cols x p from seed 0,
    read-only and kept for the next block of the same shape."""
    Omega = np.random.default_rng(0).standard_normal((cols, p))
    Omega.flags.writeable = False
    return Omega


def _ritz_bounds(block: np.ndarray, p: int, fro2: float) -> tuple[np.ndarray, float, float]:
    """(s, rho, r): the p Ritz values s of B = block, fro2 = ||B||_F^2 from
    _squared_norm, and radii with s_i - r <= sigma_i(B) <= s_i + rho.

    Q = qr(B Omega), Omega Gaussian with p columns from seed 0, then one power
    step Q = qr(B B^T Q) (Halko, Martinsson and Tropp, SIAM Rev. 53, 2011);
    s = svd(C), C = Q^T B.  In exact arithmetic s_i = sigma_i(Q Q^T B) <=
    sigma_i(B), and Weyl's inequality with ||B - Q Q^T B||_2^2 <= ||B||_F^2 -
    ||C||_F^2 (Pythagoras) gives sigma_i(B) <= s_i + rho; B - QC is never
    formed, and the stack is left intact.

    Rounding, u the unit roundoff and gamma = (rows + cols + p) u: Q^T Q is
    formed within gamma |Q|^T |Q|, so eta = ||fl(Q^T Q) - I||_F + 2 p gamma
    bounds ||Q^T Q - I||_2.  The non-orthonormal Q, the rounding of C (within
    gamma |Q|^T |B|, of Frobenius norm at most sqrt(2 p) ||B||_F) and its
    backward stable SVD (taken within gamma ||B||_F) move each s_i by at most
    e ||B||_F, e = eta + 2 (1 + sqrt p) gamma; with the two squared norms (each
    within gamma) they move rho^2 by at most 2 e ||B||_F^2.  slack = 8 e fro2
    covers both: r = sqrt(slack) >= e ||B||_F, and as rho <= 1.5 ||B||_F,
    adding slack to rho^2 raises rho at least e ||B||_F above the residual.
    """
    Q = np.linalg.qr(block @ _test_matrix(block.shape[1], p))[0]
    Q = np.linalg.qr(block @ (block.T @ Q))[0]
    C = Q.T @ block
    s = np.linalg.svd(C, compute_uv=False)
    gamma = (sum(block.shape) + p) * np.finfo(float).eps / 2
    eta = float(np.linalg.norm(Q.T @ Q - np.eye(p))) + 2 * p * gamma
    slack = 8 * (eta + 2 * (1 + np.sqrt(p)) * gamma) * fro2
    rho = float(np.sqrt(max(fro2 - _squared_norm(C), 0.0) + slack))
    return s, rho, float(np.sqrt(slack))


def count_eigenvalues_below(spec: ModelSpec, z: float,
                            workspace: Optional[_BSWorkspace] = None) -> int:
    """N(z) = n(1, T(z)): eigenvalues of H below z, via the sandwich operator.

    The spectrum of T is +/- the singular values of its cross block, so this
    counts block singular values above 1 over the blocks of the model's flip
    axes (one full cross block when it has none), one block per sector orbit.
    """
    if z >= spec.m:
        raise OutOfDomainError(f"z = {z} is not below the threshold m = {spec.m}")
    ws = workspace if workspace is not None else _BSWorkspace(spec)
    return _count_orbits(ws, ws.sector_blocks(z, ws.orbit_slots)[0], ws.orbit_slots)


def _count_orbits(ws: _BSWorkspace, stack: np.ndarray, slots: list,
                  fro2: Optional[list] = None) -> int:
    """N(z) from the sector blocks stack[i] of the labels slots[i], which
    hold the orbit representatives: one block per orbit, times its size.
    fro2[i], when given, is the squared Frobenius norm of stack[i]."""
    at = [slots.index(k) for k in ws.orbit_slots]
    return _count_block_singular_above([stack[i] for i in at], 1.0,
                                       [mult for _, mult in ws.orbits],
                                       None if fro2 is None else [fro2[i] for i in at])


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
    U, S = ws._arrays()
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
        # Delta_alpha(p, .) > 0 below a bracket without a root, so only the columns
        # (channel 1) or rows (2) of roots p go to the scratch stack ("clip": unbuffered)
        roots = np.flatnonzero(has_root)
        n, M = U.shape[:2]
        R = S.reshape(-1)[:n * M * roots.size].reshape((n, M, -1) if alpha == 1 else (n, -1, M))
        a, b = lo, np.full(vals_min.size, top)
        for _ in range(60):
            c = 0.5 * (a + b)
            np.take(U, roots, axis=2 if alpha == 1 else 1, out=R, mode="clip")
            R -= c[roots][None, :] if alpha == 1 else c[roots][:, None]
            pos = np.ones(vals_min.size, dtype=bool)
            pos[roots] = 1.0 - mu * ws._lambda(alpha, np.reciprocal(R, out=R)) > 0.0
            a = np.where(pos, c, a)
            b = np.where(pos, b, c)
            if float(np.max(b - a)) < 1e-10:
                break
        out[roots] = (0.5 * (a + b))[roots]
    return ws.on_nodes(out)


def _kernel_support(points: np.ndarray, hess: HessianData,
                    delta: float) -> tuple[np.ndarray, np.ndarray]:
    """((x, U x), chi) at the points x: chi marks the support of the threshold
    model kernel, (x, U x) < delta^2."""
    quad = np.einsum("ij,jk,ik->i", points, hess.U, points)
    return quad, quad < delta * delta


def model_kernel_block(spec: ModelSpec, hess: HessianData, s: float,
                       delta: float = 1.0, rows: Optional[np.ndarray] = None,
                       cols: Optional[np.ndarray] = None) -> np.ndarray:
    """Nystrom block of the threshold model kernel T(delta; s), cross entry only.

    d0 chi(p) chi(q) (n1 (Up,p) + 2s)^{-1/4} (n2 (Uq,q) + 2s)^{-1/4}
       / (l1 (Up,p) + 2 l (Up,q) + l2 (Uq,q) + 2s),
    with chi the indicator of |U^{1/2} p| < delta (_kernel_support), over the
    points p (rows) and q (cols), by default the grid nodes, with the grid
    weight.
    """
    r = spec.grid.nodes if rows is None else rows
    c = spec.grid.nodes if cols is None else cols
    Uh = hess.U
    d0 = np.sqrt(hess.detU) / (2 * np.pi ** 2) * (hess.l1 * hess.l2) ** 0.75
    quad_r, chi_r = _kernel_support(r, hess, delta)
    quad_c, chi_c = _kernel_support(c, hess, delta)
    num_r = chi_r * (hess.n1 * quad_r + 2 * s) ** -0.25
    num_c = chi_c * (hess.n2 * quad_c + 2 * s) ** -0.25
    K = (r @ Uh) @ c.T      # the one block-sized array: the denominator, in place
    K *= 2 * hess.l
    K += hess.l1 * quad_r[:, None]
    K += hess.l2 * quad_c[None, :]
    K += 2 * s
    np.divide((spec.grid.weight * d0 * num_r)[:, None], K, out=K)
    K *= num_c[None, :]
    return K


def _check_cutoff(delta: float) -> None:
    if not (np.isfinite(delta) and delta > 0):
        raise ModelDataError(f"cutoff delta must be finite and positive, got {delta}")


def hs_diagnostics(spec: ModelSpec, z: float, delta: float = 1.0,
                   hess: Optional[HessianData] = None,
                   workspace: Optional[_BSWorkspace] = None) -> tuple[float, float]:
    """(HS norm of T(z), HS norm of T(z) - T(delta; |m-z|)).

    Squared norms are sums over the sector blocks (a unitary change of
    basis).  The model kernel uses the Hessian structure at the minimum;
    extraction is done on demand when `hess` is not supplied.
    """
    if z >= spec.m:
        raise OutOfDomainError(f"z = {z} is not below the threshold m = {spec.m}")
    _check_cutoff(delta)
    hess = hess if hess is not None else hessian_at_minimum(spec)
    ws = workspace if workspace is not None else _BSWorkspace(spec)
    orbits = _hs_orbits(ws, hess)
    stack = ws.sector_blocks(z, [k for k, _ in orbits])[0]
    return _hs_of_sectors(ws, stack, z, delta, hess, orbits)[:2]


def _hs_orbits(ws: _BSWorkspace, hess: HessianData) -> list:
    """(psi, multiplicity) over the sector labels the HS diagnostics read:
    one per orbit when every permutation of ws.group leaves U unchanged (the
    model kernel is then invariant under them too), else every label once."""
    if all(np.array_equal(hess.U[np.ix_(s, s)], hess.U) for s in ws.group):
        return list(ws.orbits)
    return [(k, 1) for k in range(2 ** len(ws.axes))]


def _hs_of_sectors(ws: _BSWorkspace, S: np.ndarray, z: float, delta: float,
                   hess: HessianData, orbits) -> tuple[float, float, list]:
    """hs_diagnostics from the sector blocks S[i] = B_psi, indexed (t, p), of
    the labels psi of orbits[i] (_hs_orbits), which it leaves unchanged, and
    the squared norms ||B_psi||_F^2 per block, the _squared_norm sums the
    count reads.

    The sector blocks are the blocks of T12 in an orthonormal basis, so
    ||T||_HS^2 = 2 sum_psi ||B_psi||^2, each orbit's block weighted by its
    size.  U is diagonal on every model with flip axes (the builtin separable
    ones: off-diagonal Hessian entries exactly 0.0), so the model kernel is
    flip invariant and its sector blocks are the character sums
    K_psi = sum_k psi(k) K_k of its flipped blocks K_k, indexed (p, t).  With
    c1 == c2, T's block psi chi_2 meets the model's psi, so by Parseval the
    squared distance is the sum over the slots psi of
    ||K_{psi ^ c2} - B_psi^T||^2.  Every K_k vanishes off the rows and
    columns I of the union of the flipped supports, so
        ||K_{psi ^ c2} - B_psi^T||^2 = ||B_psi off I x I||^2
                                       + ||K_{psi ^ c2}[I, I] - B_psi[I, I]^T||^2,
    exact for any superset of the support, with the K_k built on I in one
    call; else T and the model sit in disjoint sector pairs and the distance
    is ||T||^2 + ||K||^2, ||K||^2 = 2^|A| sum_k ||K_k||^2."""
    n, (c1, c2) = 2 ** len(ws.axes), ws.chi
    F = ws.flipped_nodes
    I = _kernel_support(F.reshape(-1, 3), hess, delta)[1].reshape(n, -1).any(axis=0)
    K = model_kernel_block(ws.spec, hess, ws.spec.m - z, delta,
                           rows=F[:, I].reshape(-1, 3), cols=ws.r[I])
    K = K.reshape(n, -1)        # row k: K_k on I x I
    hs2 = diff2 = 0.0
    norms = []
    if c1 == c2:
        K = _characters(n)[[psi ^ c2 for psi, _ in orbits]] @ K
    for i, (psi, mult) in enumerate(orbits):
        rows2 = np.einsum("ij,ij->i", S[i], S[i])      # ||B_psi[t, :]||^2
        norms.append(float(rows2.sum()))
        hs2 += mult * norms[-1]
        if c1 == c2:
            BI = S[i][I]            # the rows of the support, a copy
            D = K[i].reshape(len(BI), len(BI))
            D -= BI[:, I].T
            BI[:, I] = 0.0
            diff2 += mult * (float(rows2[~I].sum()) + _squared_norm(BI) + _squared_norm(D))
    if c1 != c2:
        diff2 = hs2 + n * _squared_norm(K)
    return float(np.sqrt(2.0 * hs2)), float(np.sqrt(2.0 * diff2)), norms


def trust_floor(n: int) -> float:
    """Smallest trusted m - z on an n^3 grid: (2 pi / n)^2 / 10."""
    return (2 * np.pi / n) ** 2 / 10.0


def count_report(spec: ModelSpec, m_minus_z, delta: float = 1.0,
                 with_hs: bool = True) -> CountReport:
    """Sweep N(z), determinant minima and HS diagnostics over a z-list."""
    s_list = np.unique(np.asarray(m_minus_z, dtype=float))[::-1]
    if s_list.size == 0 or s_list.min() <= 0:
        raise ModelDataError("m - z values must be positive and nonempty")
    _check_cutoff(delta)
    ws = _BSWorkspace(spec)
    orbits = ws.orbits
    if with_hs:
        try:
            hess = hessian_at_minimum(spec)
            orbits = _hs_orbits(ws, hess)    # the count's slots among them
        except NotProductFormError:
            with_hs = False     # e.g. tabulated models: HS columns stay NaN
    slots = [k for k, _ in orbits]
    counts = np.empty(s_list.size, dtype=int)
    detmin = np.empty(s_list.size)
    hs = np.full(s_list.size, np.nan)
    hsd = np.full(s_list.size, np.nan)
    floor = trust_floor(spec.grid.n)
    for i, s in enumerate(s_list):
        z = spec.m - s
        # Delta is invariant under the flips, so its minimum over the
        # representatives is its minimum over all nodes
        stack, d1, d2 = ws.sector_blocks(z, slots)
        detmin[i] = min(float(d1.min()), float(d2.min()))
        fro2 = None
        if with_hs:
            hs[i], hsd[i], fro2 = _hs_of_sectors(ws, stack, z, delta, hess, orbits)
        counts[i] = _count_orbits(ws, stack, slots, fro2)
        if i and counts[i] < counts[i - 1]:
            raise HypothesisViolationError(
                f"N(z) fell from {counts[i - 1]} at m - z = {s_list[i - 1]:.6g} to "
                f"{counts[i]} at m - z = {s:.6g}: a count must not decrease as z rises")
    return CountReport(
        m_minus_z=s_list, counts=counts, det_min=detmin, hs_norm=hs, hs_diff=hsd,
        trusted=s_list >= floor,
        meta={"grid_n": spec.grid.n, "mu1": spec.mu1, "mu2": spec.mu2,
              "delta": delta, "trust_floor": floor, "tie_rtol": TIE_RTOL})
