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
the product of per-axis node lists, the positive half on A.  The full cross
block is the case A = (): one block over all nodes, which is what tabulated
or custom dispersions and form factors without any axis parity run on.

Axis permutations that keep A, the axis weights and both form factors
(`_sector_orbits`, the group G) commute with T(z) as well and move the flip
labels, so every row of a sector block is a permuted row of another: with
s t = d, B_psi[t, p] = B_{s psi}[d, s p].  The workspace therefore holds the
pair energies U_k only on the rows D, one representative per G-orbit
(about N / 2^|A| / |G| of them), built by pair_matrix; one pass over
cache-sized slabs (`_character_sums`) forms the character sums
R_psi = sum_k psi(k) / (U_k - z) of every label on those rows, and the rest
reads them, weighted by the orbit sizes.  Lambda_alpha(p, z) and
Delta_alpha(p, z) are invariant under the flips and G, so they come from the
trivial sum R_0 on the rows D; the determinants, `lambda_on_grid` and
`validate`'s Lambda maximum spread them to all nodes.  The HS diagnostics
read the squared norms of the rows and, by Parseval, one gather of the
sector-block entries on the threshold model kernel's support.  The count
reads one block per orbit of the flip labels, weighted by its size: the
block of the symmetric irrep of its little group, whose other irreps a
Frobenius bound certifies empty (else the whole block, formed from the rows
D).  The essential-spectrum bisection runs on the rows D of a column-cut
stack.  With a trivial G, D is every representative and the count reads the
sector blocks themselves.

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
_EPS = float(np.finfo(float).eps)


class _BSWorkspace:
    """Reusable arrays for a z-sweep on one model, built on first use.

    For the model's flip axes A it holds the representatives r, the C-order
    product of the per-axis node `lists` (the positive half of the axis nodes
    on A, all nodes elsewhere; all nodes when A = ()), and the rows D of them,
    one per orbit of the model's axis permutations `group` (each orbit's
    smallest index; `rows`, with `orbit_of` the orbit of every representative
    and `sizes` the orbit sizes).  Its arrays, nbytes in all, are the 2^|A|
    pair energies U_k[d, p] = u(k r_d, r_p) over the flips k on A on the rows
    D, one stack of the same shape for their character sums, and, when the
    group is not trivial, the count's symmetric blocks and one scratch array
    of M x M or two D x M gathers (M representatives).

    T(z) commutes with the permutations: U_{s k}[s t, s p] = U_k[t, p] with
    s k the flip moved by s, so R_psi[s t, s p] = R_{s^-1 psi}[t, p] for
    the character sums R_psi = sum_k psi(k) / (U_k - z), and every row of a
    sector block is a permuted row D of another (`_twisted_rows`): with h t
    = d in D, B_psi[t, p] = B_{h psi}[d, h p].  One pass (_sector_rows)
    forms all 2^|A| character sums on the rows D and scales them to the
    sector rows; Lambda, the determinants, the HS diagnostics, the count and
    the essential bisection read everything from them, weighted by the orbit
    sizes.  With a trivial group D is every representative and the pass is
    the full sector pass.  `orbits` holds (k, multiplicity) for each orbit of
    the flip labels, k the orbit's smallest label, and `orbit_slots` those
    labels k: the sector blocks a count reads.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.w = spec.grid.weight
        n, x = spec.grid.n, spec.grid.axis
        phi = [spec.phi_values(alpha).reshape((n,) * 3) for alpha in (1, 2)]
        self.axes, self.chi = _flip_axes(spec, phi)
        self.lists = [x[n // 2:] if a in self.axes else x for a in range(3)]
        self.r = product_nodes(self.lists)      # the representatives
        self.group, self.orbits = _sector_orbits(spec, self.axes, phi)
        self.orbit_slots = [k for k, _ in self.orbits]
        self._orbit_tables()
        M, rows, labels = len(self.r), len(self.rows), 2 ** len(self.axes)
        # the count's symmetric blocks and scratch (_count_blocks)
        self._count_sizes = ((sum(plan[0] ** 2 for plan in self._plans),
                              max(M * M, 2 * rows * M)) if self._plans else ())
        self.nbytes = 8 * (2 * labels * rows * M + labels * min(_SLAB, rows * M)
                           + sum(self._count_sizes))
        require_memory(self.nbytes, f"count workspace on the {n}^3 grid")
        half = tuple(slice(n // 2, None) if a in self.axes else slice(None) for a in range(3))
        self.f1, self.f2 = (v[half].ravel() for v in phi)
        self._f1w = self.sizes * self.f1[self.rows] ** 2    # Lambda_1's weights on D
        self._stacks = None     # (U stack, character sums) on the rows D
        self._u_min = np.inf    # U's minimum, set with the stacks

    def _orbit_tables(self) -> None:
        """The group's action on the representatives and the flip labels, the
        rows D, and one plan per orbit slot for its symmetric block."""
        shape = [len(l) for l in self.lists]
        idx = np.indices(shape).reshape(3, -1)
        # perms[g, t]: the representative with the coordinates of t moved by
        # group[g], coordinate a to axis group[g][a]; labels[g, k]: the flip k
        # moved the same way (axis A[0] is the top flip bit)
        self.perms = np.array([np.ravel_multi_index([idx[s.index(b)] for b in range(3)], shape)
                               for s in self.group])
        bit = {a: 1 << (len(self.axes) - 1 - i) for i, a in enumerate(self.axes)}
        self.labels = np.array([[sum(bit[s[a]] for a in self.axes if k & bit[a])
                                 for k in range(2 ** len(self.axes))] for s in self.group])
        self.rows, self.orbit_of = np.unique(self.perms.min(axis=0), return_inverse=True)
        self.sizes = np.bincount(self.orbit_of).astype(float)
        self._h = np.argmax(self.perms == self.rows[self.orbit_of], axis=0)    # h t = d
        self.orbit_members = [np.unique(self.labels[:, k]) for k in self.orbit_slots]
        self._plans = [self._symmetric_plan(k) for k in self.orbit_slots] \
            if len(self.group) > 1 else []

    def _symmetric_plan(self, psi: int) -> tuple:
        """(size, parts, row scale, column scale) of the symmetric block of the
        sector psi under its little group G_psi = {s: s psi = psi}.

        B_sym[O, O'] = sqrt(|O| / |O'|) sum_{y in O'} B_psi[x0(O), y] over the
        G_psi-orbits O and O' of the representatives.  A G_psi-orbit in the
        G-orbit of d holds c d for some c of the right cosets G_psi c, so
        x0(O) = c d for the first such c in group order, and the orbit sum is
        |O'| / |G_psi| times sum_{g in G_psi} B_psi[x0, g y0], y0 the smallest
        index in O'.  Part (label, rows, cols) gives the rows c d = h^-1 d of
        one c: B_psi[c d, y] = Y[h psi][d, h y], so cols[g] = h g y0."""
        little = np.flatnonzero(self.labels[:, psi] == psi)
        first, oid = np.unique(self.perms[little].min(axis=0), return_inverse=True)
        size = np.bincount(oid)
        index = {s: g for g, s in enumerate(self.group)}
        seen, covered, parts, row_orbits = np.zeros(len(size), bool), set(), [], []
        for g, c in enumerate(self.group):
            if g in covered:
                continue
            covered |= {index[tuple(self.group[f][c[a]] for a in range(3))] for f in little}
            o = oid[self.perms[g][self.rows]]
            new = np.flatnonzero(~seen[o])
            seen[o[new]] = True
            h = index[tuple(c.index(b) for b in range(3))]
            cols = self.perms[h][self.perms[little][:, first]]
            parts.append((int(self.labels[h, psi]), new, cols))
            row_orbits.append(o[new])
        return (len(size), parts, np.sqrt(size[np.concatenate(row_orbits)]),
                np.sqrt(size) / len(little))

    def flips(self) -> list:
        """The axis sets of the flips k on A in bit order: k's set bits."""
        return [tuple(a for a, f in zip(self.axes, flip) if f)
                for flip in np.ndindex((2,) * len(self.axes))]

    def flipped(self):
        """(k, the per-axis lists of the representatives flipped by k) for the
        flips k in bit order: negated on the axes of k's set bits."""
        for k, neg in enumerate(self.flips()):
            yield k, [-x if a in neg else x for a, x in enumerate(self.lists)]

    @cached_property
    def flipped_nodes(self) -> np.ndarray:
        """The representatives flipped by k, k r, stacked over the flips k."""
        return np.stack([product_nodes(lists) for _, lists in self.flipped()])

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._stacks is None:
            M, rows = len(self.r), len(self.rows)
            U = np.empty((2 ** len(self.axes), rows, M))
            pair_matrix(self.spec, out=U, rows=self.lists, cols=self.lists,
                        at=np.unravel_index(self.rows, [len(l) for l in self.lists]),
                        flips=self.flips())
            self._stacks = U, np.empty_like(U)
            self._slab = np.empty((len(U), min(_SLAB, rows * M)))
            self._u_min = float(U.min())
            if self._plans:
                self._sym, self._scratch = (np.empty(size) for size in self._count_sizes)
        return self._stacks

    def _character_sums(self, z: float, slots) -> np.ndarray:
        """The character sums of the resolvents 1/(U_k - z) on the rows D, in
        the front of the second stack, entry i for the label slots[i]
        (_character_sums).  fl(u - z) <= 0 exactly when u <= z, so the domain
        check reads U's minimum instead of the differences."""
        U, S = self._arrays()
        if self._u_min <= z:
            raise OutOfDomainError(f"z = {z} is not below the grid spectrum of u")
        _character_sums(U, S, z, slots, self._slab)
        return S[:len(slots)]

    def _lambda(self, alpha: int, S: np.ndarray,
                cols: Optional[np.ndarray] = None) -> np.ndarray:
        """Lambda_alpha on the rows D from a stack of resolvents on them,
        summed over its slots, so the trivial slot S[:1] = R_0 gives Lambda.
        Channel 2 sums each row over p (a stack cut to some rows D gives it
        on those).  Channel 1 sums over t at each column p, every row t a
        permuted row D, (sum_d |G d| phi1(d)^2 R_0[d, s p]) averaged over the
        group elements s: the column sums with the orbit-size weights averaged
        over each orbit (a stack cut to the whole orbits `cols` gives it on
        their rows D)."""
        if alpha == 2:
            return self.w * (S @ self.f2 ** 2).sum(axis=0)
        v = self.w * (self._f1w @ S).sum(axis=0)
        orbit = self.orbit_of if cols is None else self.orbit_of[cols]
        return np.bincount(orbit, weights=v, minlength=len(self.rows)) / self.sizes

    def lambdas(self, alpha: int, z: float) -> np.ndarray:
        """Lambda_alpha(p, z) on the representatives p of the model's axes."""
        return self._lambda(alpha, self._character_sums(z, [0]))[self.orbit_of]

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
        return tuple(self.on_nodes((1.0 - self.spec.mu(a) * self._lambda(a, R0))[self.orbit_of])
                     for a in (1, 2))

    def _sector_rows(self, z: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Y, d1, d2): Y[psi] the rows D of the sector block B_psi = col(t)
        row(p) R_psi[t, p] of T12(z) for every label psi, in the second
        stack, and the determinants d1, d2 on the rows D.

        Blocks are indexed (t, p), first slot of u first, so for A = () the
        cross block T12 is its one block transposed.  With u invariant under
        every flip k on A and phi_alpha(k q) = chi_alpha(k) phi_alpha(q), T12
        maps the sector of the character psi onto that of psi chi_1 chi_2,
        and on the representatives its block is the character sum with
        psi chi_2 of the flipped blocks col row / (U_k - z).  Multiplying by
        chi_2 only permutes the labels psi, and col and row do not depend on
        k, so the sector blocks are col row times the character sums of the
        resolvents.  Lambda_alpha and the determinants come from the trivial
        one, R_0 = sum_k 1/(U_k - z); col and row are invariant under the
        group, so the rows are scaled row slab by row slab with the outer
        product of col on D and row on every representative.
        """
        S = self._character_sums(z, range(2 ** len(self.axes)))
        d1, d2 = (1.0 - self.spec.mu(a) * self._lambda(a, S[:1]) for a in (1, 2))
        if d1.min() <= 0.0 or d2.min() <= 0.0:
            raise InvalidSpectralPointError(
                f"nonpositive determinant at z = {z} "
                f"(min d1 = {d1.min():.3e}, min d2 = {d2.min():.3e}); "
                f"z is not below the channel branches")
        scale = np.sqrt(self.spec.mu1 * self.spec.mu2) * self.w
        col = self.f1[self.rows] / np.sqrt(d2)              # t: spectator of channel 2
        row = scale * self.f2 / np.sqrt(d1[self.orbit_of])  # p: spectator of channel 1
        step = max(1, _SLAB // len(row))       # rows of one slab of the outer product
        for i in range(0, len(col), step):
            S[:, i:i + step] *= np.multiply.outer(col[i:i + step], row)
        return S, d1, d2

    def _twisted_rows(self, Y: np.ndarray, psi: int, t: np.ndarray,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
        """B_psi[t, :] for the representatives t from the sector rows Y on D:
        with h the group element that takes t to its row d = h t in D,
        B_psi[t, p] = Y[h psi][d, h p].  Rows go in chunks of 16 _SLAB
        entries, so the gathers stay small beside out."""
        out = np.empty((len(t), Y.shape[2])) if out is None else out
        h = self._h[t]
        step = max(1, 16 * _SLAB // Y.shape[2])
        for g in np.unique(h):
            group_rows = np.flatnonzero(h == g)
            for i in range(0, len(group_rows), step):
                at = group_rows[i:i + step]
                rows = Y[self.labels[g, psi]][self.orbit_of[t[at]]]
                out[at] = rows if g == 0 else rows[:, self.perms[g]]    # group[0]: identity
        return out

    def sector_blocks(self, z: float, slots) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(stack, d1, d2): entry i of the new stack is the sector block B_psi
        of T12(z) on all representatives for the label psi = slots[i], read
        off the sector rows (_sector_rows, _twisted_rows); d1 and d2 are the
        determinants on the representatives."""
        Y, d1, d2 = self._sector_rows(z)
        t = np.arange(len(self.r))
        stack = np.empty((len(slots), len(t), len(t)))
        for i, psi in enumerate(slots):
            self._twisted_rows(Y, psi, t, out=stack[i])
        return stack, d1[self.orbit_of], d2[self.orbit_of]

    def _count_blocks(self, Y: np.ndarray, full2: list) -> tuple:
        """(blocks, fro2): per orbit slot, the block the count reads and its
        squared Frobenius norm, given the squared norms full2 of the slots'
        sector blocks.  With a trivial group a slot's block is its sector
        rows.  Else it is its symmetric block (_symmetric_plan): B_psi
        commutes with the permutations of G_psi, so its singular values are
        those of B_sym and of its restriction to the other irreps of G_psi,
        whose Frobenius norm rest obeys rest^2 = ||B_psi||^2 - ||B_sym||^2.
        rest <= 1 certifies that none of them exceeds 1.  Rounding, u the
        unit roundoff: both squared norms are sums of nonnegative terms,
        each within (2 M + 2^|A| + 4) u of its value, and an entry of B_sym
        adds at most |G| <= 6 entries of B_psi and takes two scale factors,
        so it is within 8 u of the same entry of the symmetric block of
        |B_psi|, whose norm is at most ||B_psi||_F; that moves ||B_sym||^2 by
        at most 17 u full2.  The slack 8 (M + 2^|A| + 8) eps full2 (eps =
        2 u) covers the three, and rest^2 + slack <= 1 certifies the slot.
        A slot whose full2 is at most 1 needs no block.  Where a slot is not
        certified, its whole sector block is formed from the rows D in the
        scratch array, one at a time, and counted instead."""
        if not self._plans:
            return [Y[k] for k in self.orbit_slots], full2
        M, rows = Y.shape[2], Y.shape[1]
        scratch = self._scratch
        blocks, fro2, at = [], [], 0
        for psi, (size, parts, rscale, cscale), f2 in zip(self.orbit_slots, self._plans, full2):
            B = self._sym[at:at + size * size].reshape(size, size)
            at += size * size
            if f2 <= 1.0:       # the sector block's norm already bounds every value
                blocks.append(B)
                fro2.append(f2)
                continue
            i = 0
            for label, sel, cols in parts:
                r = len(sel)
                src = Y[label] if r == rows else np.take(
                    Y[label], sel, axis=0, out=scratch[:r * M].reshape(r, M), mode="clip")
                dst = B[i:i + r]
                i += r
                np.take(src, cols[0], axis=1, out=dst, mode="clip")
                add = scratch[r * M:r * (M + size)].reshape(r, size)
                for g in cols[1:]:
                    dst += np.take(src, g, axis=1, out=add, mode="clip")
            if size < M:
                B *= cscale
                B *= rscale[:, None]
            sym2 = _squared_norm(B)
            slack = 8 * (M + len(Y) + 8) * _EPS * f2
            certified = f2 - sym2 + slack <= 1.0
            blocks.append(B if certified else psi)
            fro2.append(sym2 if certified else f2)
        t = np.arange(M)
        full = self._scratch[:M * M].reshape(M, M)
        return (b if isinstance(b, np.ndarray) else self._twisted_rows(Y, b, t, out=full)
                for b in blocks), fro2


@lru_cache(maxsize=None)
def _characters(n: int) -> np.ndarray:
    """The n x n +-1 character matrix of Z2^|A|, n = 2^|A| (read-only): entry
    (psi, k) is psi(k) = (-1)^popcount(psi & k), with psi and k both indexing
    the flip bits of the axes in order."""
    H = reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * (n.bit_length() - 1),
               np.ones((1, 1)))
    H.flags.writeable = False
    return H


def _character_sums(U: np.ndarray, S: np.ndarray, z: float, slots,
                    buf: Optional[np.ndarray] = None) -> None:
    """In place, S[i] becomes the character sum R_psi = sum_k psi(k) / (U_k -
    z) over the stack U_k of the flips k, for psi = slots[i]; the rest of S
    is scratch.

    One column slab of the flattened stacks at a time: the resolvents of
    every flip go to one buffer of 2^|A| x _SLAB doubles (`buf`, when given,
    of at least 2^|A| x min(_SLAB, columns)), and those rows of the
    character matrix times it go straight to S.  A slot's bits must not
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
    buf = np.empty((n, min(_SLAB, width))) if buf is None else buf
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


def _count_block_singular_above(stack, mu: float, mults: Optional[list] = None,
                                fro2: Optional[list] = None,
                                band: Optional[float] = None) -> int:
    """#{singular values > mu} of one block, or of the block-diagonal sum of a
    stack or sequence of blocks: every block once, or block i counted mults[i]
    times (the sizes of the sector orbits, see _BSWorkspace).  fro2[i], when
    given, is _squared_norm of block i, computed by the caller, and the blocks
    may then come from an iterator, each formed after the last one's count.

    Values within TIE_RTOL times the largest singular value of the whole count
    as not above; the certificates clear that band, by default at the largest
    Frobenius norm, which bounds the largest singular value from above (the
    caller passes the band of larger blocks the given ones are parts of).
    """
    blocks = [stack] if isinstance(stack, np.ndarray) and stack.ndim == 2 else stack
    fro2 = fro2 if fro2 is not None else [_squared_norm(b) for b in blocks]
    mults = mults if mults is not None else [1] * len(fro2)
    band = band if band is not None else TIE_RTOL * np.sqrt(max(fro2))
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
    Y = ws._sector_rows(z)[0]
    return _count_orbits(ws, Y, _row_norms(ws, Y))


def _row_norms(ws: _BSWorkspace, Y: np.ndarray) -> list:
    """full2[psi] = sum_d |G d| ||B_psi[d, :]||^2 over the rows D of the
    sector rows Y, each row summed as _squared_norm sums it.  Row t = s d of
    B_psi is a permuted row d of B_{s^-1 psi}, so over the labels of an orbit
    these sums are the squared norms of its sector blocks, and over all
    labels ||T12||_F^2."""
    return [float((r * ws.sizes).sum()) for r in np.einsum("kij,kij->ki", Y, Y)]


def _count_orbits(ws: _BSWorkspace, Y: np.ndarray, full2: list) -> int:
    """N(z) from the sector rows Y and the label sums full2 of _row_norms:
    one block per orbit (_count_blocks), times its size, with the tie band
    of the largest sector block."""
    norms = [sum(full2[k] for k in members) / len(members) for members in ws.orbit_members]
    blocks, fro2 = ws._count_blocks(Y, norms)
    return _count_block_singular_above(blocks, 1.0, [mult for _, mult in ws.orbits], fro2,
                                       TIE_RTOL * np.sqrt(max(norms)))


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
    """Vectorized bisection of Delta_alpha(p, .) = 0 below m over the rows D
    of the model's flip axes and axis permutations, spread to all nodes."""
    spec = ws.spec
    mu = spec.mu(alpha)
    # min over t of u_p(t): t runs over the flips k of every representative,
    # the first slot (U_k rows) in channel 1 and the second in channel 2; a
    # row of U on D holds the values of every row of its orbit
    U, S = ws._arrays()
    D = len(ws.rows)
    if alpha == 1:
        vals_min = np.full(D, np.inf)
        np.minimum.at(vals_min, ws.orbit_of, U.min(axis=(0, 1)))
    else:
        vals_min = U.min(axis=(0, 2))
    # bracket top just below the three-body threshold: quadrature sums are
    # finite there (every node value exceeds m) and roots above m are not
    # reported (they sit inside the band)
    top = spec.m - 1e-12 * max(1.0, abs(spec.m))
    phi2max = float(np.max(spec.phi_values(alpha) ** 2))
    lo = vals_min - (spec.M - spec.m) - mu * TWO_PI ** 3 * phi2max
    has_root = 1.0 - mu * ws._lambda(alpha, ws._character_sums(top, [0])) < 0.0
    out = np.full(D, np.nan)
    if has_root.any():
        # Delta_alpha(p, .) > 0 below a bracket without a root, so only the
        # columns of the roots' orbits (channel 1) or the rows of the roots
        # (2) go to the second stack ("clip": unbuffered)
        roots = np.flatnonzero(has_root)
        cols = np.flatnonzero(has_root[ws.orbit_of]) if alpha == 1 else None
        n, M = U.shape[0], U.shape[2]
        R = (S.reshape(-1)[:n * D * cols.size].reshape(n, D, -1) if alpha == 1
             else S.reshape(-1)[:n * roots.size * M].reshape(n, -1, M))
        a, b = lo, np.full(D, top)
        for _ in range(60):
            c = 0.5 * (a + b)
            if alpha == 1:
                np.take(U, cols, axis=2, out=R, mode="clip")
                R -= c[ws.orbit_of[cols]][None, :]
            else:
                np.take(U, roots, axis=1, out=R, mode="clip")
                R -= c[roots][:, None]
            lam = ws._lambda(alpha, np.reciprocal(R, out=R), cols)
            pos = np.ones(D, dtype=bool)
            pos[roots] = 1.0 - mu * (lam[roots] if alpha == 1 else lam) > 0.0
            a = np.where(pos, c, a)
            b = np.where(pos, b, c)
            if float(np.max(b - a)) < 1e-10:
                break
        out[roots] = (0.5 * (a + b))[roots]
    return ws.on_nodes(out[ws.orbit_of])


def _kernel_support(points: np.ndarray, hess: HessianData,
                    delta: float) -> tuple[np.ndarray, np.ndarray]:
    """((x, U x), chi) at the points x: chi marks the support of the threshold
    model kernel, (x, U x) < delta^2."""
    quad = ((points @ hess.U) * points).sum(axis=1)
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
    Y = ws._sector_rows(z)[0]
    return _hs_of_rows(ws, Y, _row_norms(ws, Y), z, delta, hess)


def _hs_of_rows(ws: _BSWorkspace, Y: np.ndarray, full2: list, z: float, delta: float,
                hess: HessianData) -> tuple[float, float]:
    """hs_diagnostics from the sector rows Y on D, which it leaves unchanged,
    and the squared norms full2 of their sector blocks (_row_norms).

    The sector blocks are the blocks of T12 in an orthonormal basis, so
    ||T||_HS^2 = 2 hs^2, hs^2 = sum_psi full2[psi].  U is diagonal on every
    model with flip axes (off-diagonal Hessian entries exactly 0.0), so the
    model's sector blocks are the character sums K_psi = sum_k psi(k) K_k of
    its flipped blocks K_k, indexed (p, t), which vanish off the rows and
    columns I of the union of the flipped supports and are built on I in one
    call.  With c1 == c2, T's block psi chi_2 meets the model's psi, so by
    Parseval
        diff^2 = hs^2 - sum_psi ||B_psi[I, I]||^2
                 + sum_psi ||K_{psi ^ c2}[I, I] - B_psi[I, I]^T||^2,
    exact for any superset of the support; the off-support term is a sum of
    squares, clamped at 0.  One gather reads the 2^|A| |I|^2 support entries
    off the rows D, B_psi[t, t'] = Y[h psi][d, h t'] with h t = d, so the
    model kernel need not be invariant under the axis permutations.
    Rounding, u the unit roundoff: hs^2 and the support sum, both at most
    hs^2, are within (M + |D| + 2^|A|) u and (2^|A| + 1) |I| u of their values
    (_squared_norm, M representatives), a relative error of about
    (M + 2^|A|) u hs^2 / diff^2 on diff^2 when I is small.  Else T and the
    model sit in disjoint sector pairs: diff^2 = hs^2 + 2^|A| sum_k ||K_k||^2."""
    n, (c1, c2) = 2 ** len(ws.axes), ws.chi
    F = ws.flipped_nodes
    I = _kernel_support(F.reshape(-1, 3), hess, delta)[1].reshape(n, -1).any(axis=0)
    K = model_kernel_block(ws.spec, hess, ws.spec.m - z, delta,     # row k: K_k on I x I
                           rows=F[:, I].reshape(-1, 3), cols=ws.r[I]).reshape(n, -1)
    hs2 = sum(full2)
    if c1 == c2:
        t = np.flatnonzero(I)
        h, m = ws._h[t], len(t)
        K = (_characters(n)[[psi ^ c2 for psi in range(n)]] @ K).reshape(n, m, m)
        # B[psi, i, j] = B_psi[t_i, t_j], C-ordered like its indices: no copies
        B = Y[np.ascontiguousarray(ws.labels[h].T)[:, :, None], ws.orbit_of[t][:, None],
              ws.perms[h[:, None], t]]
        K -= B.transpose(0, 2, 1)
        inside = _squared_norm(B.reshape(n * m, m))
        diff2 = max(hs2 - inside, 0.0) + _squared_norm(K.reshape(n * m, m))
    else:
        diff2 = hs2 + n * _squared_norm(K)
    return float(np.sqrt(2.0 * hs2)), float(np.sqrt(2.0 * diff2))


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
        # Delta is invariant under the flips and the axis permutations, so
        # its minimum on the rows D is its minimum over all nodes
        Y, d1, d2 = ws._sector_rows(z)
        detmin[i] = min(float(d1.min()), float(d2.min()))
        full2 = _row_norms(ws, Y)
        if with_hs:
            hs[i], hsd[i] = _hs_of_rows(ws, Y, full2, z, delta, hess)
        counts[i] = _count_orbits(ws, Y, full2)
        if i and counts[i] < counts[i - 1]:
            raise HypothesisViolationError(
                f"N(z) fell from {counts[i - 1]} at m - z = {s_list[i - 1]:.6g} to "
                f"{counts[i]} at m - z = {s:.6g}: a count must not decrease as z rises")
    return CountReport(
        m_minus_z=s_list, counts=counts, det_min=detmin, hs_norm=hs, hs_diff=hsd,
        trusted=s_list >= floor,
        meta={"grid_n": spec.grid.n, "mu1": spec.mu1, "mu2": spec.mu2,
              "delta": delta, "trust_floor": floor, "tie_rtol": TIE_RTOL})
