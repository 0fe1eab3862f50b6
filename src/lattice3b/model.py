"""Dispersions, pair energies, form factors and the model container.

The reference model is u(p,q) = eps(p) + c*eps(p-q) + eps(q) with
eps(q) = sum_a w_a (1 - cos q_a); c = 1 and w = (1,1,1) is the textbook case.
Everything downstream only assumes: u even, unique nondegenerate minimum at
(0,0) whose second-derivative blocks are (l1 U, l U, l2 U).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from .errors import (DegenerateModelError, HypothesisViolationError,
                     ModelDataError, NotProductFormError)
from .grids import TWO_PI, TorusGrid, axis_nodes, build_grid, wrap_to_torus

# dense product scans above this many pair evaluations fall back to subsampling
_PAIR_SCAN_CAP = 200_000_000
_CHUNK_BYTES = 1 << 28
# chunk size of the (rows, cols, 3) input handed to a generic pair evaluator
_EVAL_CHUNK_BYTES = 1 << 22


def builtin_epsilon(q: np.ndarray) -> np.ndarray:
    """3 - cos q1 - cos q2 - cos q3, vectorized over the last axis."""
    q = np.asarray(q, dtype=float)
    return 3.0 - np.cos(q[..., 0]) - np.cos(q[..., 1]) - np.cos(q[..., 2])


@dataclass(frozen=True)
class Dispersion:
    """A single-particle dispersion on the torus.

    kind is one of "builtin" (cosine family, optionally axis-weighted),
    "tabulated" (periodic trilinear interpolation of nodal values) or
    "custom" (arbitrary vectorized evaluator).  Only the builtin family
    supports the exact separable extrema/pair fast paths.
    """

    kind: str
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    axis_weights: Optional[tuple[float, float, float]] = None

    def __call__(self, q: np.ndarray) -> np.ndarray:
        return self.fn(q)

    @property
    def separable(self) -> bool:
        return self.kind == "builtin"


def builtin_dispersion(axis_weights: Sequence[float] = (1.0, 1.0, 1.0)) -> Dispersion:
    w = tuple(float(x) for x in axis_weights)
    if len(w) != 3 or any(x <= 0 for x in w):
        raise ModelDataError(f"axis weights must be three positive numbers, got {w!r}")

    def fn(q, _w=np.array(w)):
        q = np.asarray(q, dtype=float)
        return np.sum(_w * (1.0 - np.cos(q)), axis=-1)

    return Dispersion(kind="builtin", fn=fn, axis_weights=w)


def tabulated_dispersion(grid: TorusGrid, values: np.ndarray) -> Dispersion:
    """Dispersion given by nodal values on `grid`, trilinear-periodic off grid."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.size,):
        raise ModelDataError(
            f"tabulated dispersion needs {grid.size} nodal values, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ModelDataError("tabulated dispersion contains non-finite values")
    n = grid.n
    table = values.reshape((n, n, n))
    h = TWO_PI / n
    origin = -np.pi + 0.5 * h

    def fn(q):
        q = np.atleast_2d(np.asarray(q, dtype=float))
        f = (q - origin) / h
        i0 = np.floor(f).astype(int)
        t = f - i0
        out = np.zeros(q.shape[:-1])
        for da in (0, 1):
            wa = np.where(da, t[..., 0], 1.0 - t[..., 0])
            ia = np.mod(i0[..., 0] + da, n)
            for db in (0, 1):
                wb = np.where(db, t[..., 1], 1.0 - t[..., 1])
                ib = np.mod(i0[..., 1] + db, n)
                for dc in (0, 1):
                    wc = np.where(dc, t[..., 2], 1.0 - t[..., 2])
                    ic = np.mod(i0[..., 2] + dc, n)
                    out += wa * wb * wc * table[ia, ib, ic]
        return out if out.shape else float(out)

    return Dispersion(kind="tabulated", fn=fn)


@dataclass(frozen=True)
class PairEnergy:
    """Total pair energy u(p, q) on (T^3)^2.

    form "sum-of-dispersions": u = eps(p) + cross_weight * eps(p - q) + eps(q);
    cross_weight = 1 is the reference form, larger values strengthen the
    relative-motion coupling (used to make the eigenvalue accumulation rate
    visible at desk-scale grids) and keep every structural hypothesis intact.
    form "custom": arbitrary vectorized evaluator u(p, q).
    """

    form: str
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False)
    dispersion: Optional[Dispersion] = None
    cross_weight: float = 1.0

    def __call__(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return self.evaluator(p, q)


def pair_energy_sum(dispersion: Dispersion, cross_weight: float = 1.0) -> PairEnergy:
    """u(p,q) = eps(p) + cross_weight*eps(p-q) + eps(q)."""
    if cross_weight <= 0:
        raise ModelDataError("cross weight must be positive")

    def evaluator(p, q, _e=dispersion.fn, _c=float(cross_weight)):
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        return _e(p) + _c * _e(p - q) + _e(q)

    return PairEnergy(form="sum-of-dispersions", evaluator=evaluator,
                      dispersion=dispersion, cross_weight=float(cross_weight))


def custom_pair_energy(evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> PairEnergy:
    return PairEnergy(form="custom", evaluator=evaluator)


@dataclass(frozen=True)
class FormFactor:
    """Channel form factor phi with declared parity ("even" or "odd")."""

    channel: int
    parity: str
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    value_at_origin: float = 0.0

    def __call__(self, q: np.ndarray) -> np.ndarray:
        return self.fn(q)


def form_factor(channel: int, parity: str,
                fn: Callable[[np.ndarray], np.ndarray]) -> FormFactor:
    if channel not in (1, 2):
        raise ModelDataError(f"channel must be 1 or 2, got {channel}")
    if parity not in ("even", "odd"):
        raise ModelDataError(f"parity must be 'even' or 'odd', got {parity!r}")
    v0 = float(np.asarray(fn(np.zeros((1, 3)))).ravel()[0])
    if parity == "odd":
        if abs(v0) > 1e-10:
            raise ModelDataError(f"odd form factor has phi(0) = {v0:.3e} != 0")
        v0 = 0.0
    return FormFactor(channel=channel, parity=parity, fn=fn, value_at_origin=v0)


def const_form_factor(channel: int, value: float = 1.0) -> FormFactor:
    return form_factor(channel, "even",
                       lambda q, _v=float(value): np.full(np.asarray(q).shape[:-1], _v))


def sin_axis_form_factor(channel: int, axis: int = 0) -> FormFactor:
    if axis not in (0, 1, 2):
        raise ModelDataError(f"axis must be 0, 1 or 2, got {axis}")
    return form_factor(channel, "odd",
                       lambda q, _a=axis: np.sin(np.asarray(q, dtype=float)[..., _a]))


def cos_axis_form_factor(channel: int, axis: int = 0) -> FormFactor:
    if axis not in (0, 1, 2):
        raise ModelDataError(f"axis must be 0, 1 or 2, got {axis}")
    return form_factor(channel, "even",
                       lambda q, _a=axis: np.cos(np.asarray(q, dtype=float)[..., _a]))


@dataclass(frozen=True)
class HessianData:
    """Second-derivative structure of u at its minimum: blocks (l1 U, l U, l2 U).

    U is gauged to det U = 1.  n_alpha = (l1 l2 - l^2)/l_beta with
    (alpha, beta) in {(1,2), (2,1)}.
    """

    U: np.ndarray
    l1: float
    l2: float
    l: float
    detU: float
    n1: float
    n2: float
    residual: float


@dataclass(frozen=True)
class ModelSpec:
    """A full problem instance; immutable after construction."""

    grid: TorusGrid
    pair: PairEnergy
    phi1: FormFactor
    phi2: FormFactor
    mu1: float
    mu2: float
    m: float
    M: float
    argmin: tuple[np.ndarray, np.ndarray] = field(repr=False)

    def phi_values(self, alpha: int) -> np.ndarray:
        phi = self.phi1 if alpha == 1 else self.phi2
        return np.asarray(phi(self.grid.nodes), dtype=float)

    def mu(self, alpha: int) -> float:
        return self.mu1 if alpha == 1 else self.mu2

    def phi(self, alpha: int) -> FormFactor:
        return self.phi1 if alpha == 1 else self.phi2

    def channel_values(self, alpha: int, p: np.ndarray) -> np.ndarray:
        """u_p^(alpha) on the integration nodes: u(t,p) for alpha=1, u(p,t) for 2."""
        if alpha not in (1, 2):
            raise ModelDataError(f"channel must be 1 or 2, got {alpha}")
        p = np.asarray(p, dtype=float).reshape(3)
        t = self.grid.nodes
        pb = np.broadcast_to(p, t.shape)
        vals = self.pair(t, pb) if alpha == 1 else self.pair(pb, t)
        return np.asarray(vals, dtype=float)

    def with_params(self, **kw) -> "ModelSpec":
        return replace(self, **kw)


def _separable_axis_terms(pair: PairEnergy):
    """Per-axis 2D energy g_a(x, y) for separable sum-form pair energies."""
    eps = pair.dispersion
    w = eps.axis_weights
    c = pair.cross_weight

    def term(axis, x, y):
        return w[axis] * ((1 - np.cos(x)) + c * (1 - np.cos(x - y)) + (1 - np.cos(y)))

    return term


def extrema(pair: PairEnergy, grid: TorusGrid):
    """Global (m, M, argmin) of u over the product grid, with local refinement.

    Separable sum-form models reduce to three independent 2D scans (exact for
    any n); other forms use a chunked full scan up to a pair cap and a coarse
    subsampled scan beyond it.
    """
    nodes = grid.nodes
    if pair.form == "sum-of-dispersions" and pair.dispersion.separable:
        term = _separable_axis_terms(pair)
        x = axis_nodes(grid.n)
        X, Y = np.meshgrid(x, x, indexing="ij")
        m = M = 0.0
        pmin = np.empty(3)
        qmin = np.empty(3)
        pmax = np.empty(3)
        qmax = np.empty(3)
        for axis in range(3):
            g = term(axis, X, Y)
            imin = np.unravel_index(np.argmin(g), g.shape)
            imax = np.unravel_index(np.argmax(g), g.shape)
            m += g[imin]
            M += g[imax]
            pmin[axis], qmin[axis] = x[imin[0]], x[imin[1]]
            pmax[axis], qmax[axis] = x[imax[0]], x[imax[1]]
    elif pair.form == "sum-of-dispersions":
        # exact grid scan through the difference structure: u(p_i, q_j) only
        # depends on (j, i - j) and node differences live on the plain lattice
        n = grid.n
        e = np.asarray(pair.dispersion(nodes), dtype=float).reshape(n, n, n)
        h = TWO_PI / n
        lat = np.stack(np.meshgrid(*(h * np.arange(n),) * 3, indexing="ij"),
                       axis=-1).reshape(-1, 3)
        ed = np.asarray(pair.dispersion(wrap_to_torus(lat)), dtype=float)
        if not (np.all(np.isfinite(e)) and np.all(np.isfinite(ed))):
            raise ModelDataError("dispersion produced non-finite values")
        c = pair.cross_weight
        m = np.inf
        M = -np.inf
        for d in range(grid.size):
            da, db, dc = np.unravel_index(d, (n, n, n))
            corr = np.roll(e, shift=(-int(da), -int(db), -int(dc)),
                           axis=(0, 1, 2)) + e
            lo = float(corr.min()) + c * ed[d]
            hi = float(corr.max()) + c * ed[d]
            if lo < m:
                m = lo
                j = int(np.argmin(corr))
                qmin = nodes[j]
                pmin = wrap_to_torus(nodes[j] + lat[d])
            if hi > M:
                M = hi
                j = int(np.argmax(corr))
                qmax = nodes[j]
                pmax = wrap_to_torus(nodes[j] + lat[d])
    else:
        scan_nodes = nodes
        if nodes.shape[0] ** 2 > _PAIR_SCAN_CAP:
            sub = build_grid(min(grid.n, 12))
            scan_nodes = sub.nodes
        N = scan_nodes.shape[0]
        m = np.inf
        M = -np.inf
        step = max(1, _EVAL_CHUNK_BYTES // (24 * N))
        for i0 in range(0, N, step):
            block = pair.evaluator(scan_nodes[i0:i0 + step, None, :],
                                   scan_nodes[None, :, :])
            if not np.all(np.isfinite(block)):
                raise ModelDataError("pair energy produced non-finite values")
            bmin = np.unravel_index(np.argmin(block), block.shape)
            bmax = np.unravel_index(np.argmax(block), block.shape)
            if block[bmin] < m:
                m = float(block[bmin])
                pmin, qmin = scan_nodes[i0 + bmin[0]].copy(), scan_nodes[bmin[1]].copy()
            if block[bmax] > M:
                M = float(block[bmax])
                pmax, qmax = scan_nodes[i0 + bmax[0]].copy(), scan_nodes[bmax[1]].copy()

    if not (np.isfinite(m) and np.isfinite(M)):
        raise ModelDataError("pair energy produced non-finite extrema")

    smooth = (pair.dispersion is not None and pair.dispersion.kind != "tabulated") \
        or pair.form == "custom"
    if smooth:
        def f(v):
            return float(pair.evaluator(v[:3][None, :], v[3:][None, :])[0])

        res = minimize(f, np.concatenate([pmin, qmin]), method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000})
        if res.fun < m:
            m = float(res.fun)
            pmin, qmin = wrap_to_torus(res.x[:3]), wrap_to_torus(res.x[3:])
        res = minimize(lambda v: -f(v), np.concatenate([pmax, qmax]), method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000})
        if -res.fun > M:
            M = float(-res.fun)

    # the builtin family attains its minimum exactly at the origin; snap
    if np.linalg.norm(pmin) < 1e-6 and np.linalg.norm(qmin) < 1e-6:
        pmin = np.zeros(3)
        qmin = np.zeros(3)
    return float(m), float(M), (pmin, qmin)


def make_model(pair: PairEnergy, n: int, mu1: float, mu2: float,
               phi1: Optional[FormFactor] = None,
               phi2: Optional[FormFactor] = None) -> ModelSpec:
    """Assemble and validate a ModelSpec on an n^3 shifted grid."""
    grid = build_grid(n)
    phi1 = phi1 if phi1 is not None else const_form_factor(1)
    phi2 = phi2 if phi2 is not None else const_form_factor(2)
    if float(mu1) < 0 or float(mu2) < 0:
        raise ModelDataError("couplings must be nonnegative")
    m, M, argmin = extrema(pair, grid)
    if not M > m:
        raise DegenerateModelError(f"degenerate pair energy: m = M = {m}")
    spec = ModelSpec(grid=grid, pair=pair, phi1=phi1, phi2=phi2,
                     mu1=float(mu1), mu2=float(mu2), m=m, M=M, argmin=argmin)
    _validate_symmetries(spec)
    return spec


def builtin_model(n: int, mu1: float = 0.0, mu2: float = 0.0,
                  phi1: Optional[FormFactor] = None,
                  phi2: Optional[FormFactor] = None,
                  cross_weight: float = 1.0,
                  axis_weights: Sequence[float] = (1.0, 1.0, 1.0)) -> ModelSpec:
    """The cosine reference model, optionally axis-weighted / cross-weighted."""
    pair = pair_energy_sum(builtin_dispersion(axis_weights), cross_weight)
    return make_model(pair, n, mu1, mu2, phi1, phi2)


def _validate_symmetries(spec: ModelSpec, samples: int = 512, seed: int = 0) -> None:
    neg = spec.grid.negation_index()
    for alpha in (1, 2):
        phi = spec.phi(alpha)
        vals = spec.phi_values(alpha)
        sign = 1.0 if phi.parity == "even" else -1.0
        err = np.max(np.abs(vals[neg] - sign * vals))
        scale = max(1.0, np.max(np.abs(vals)))
        if err > 1e-9 * scale:
            raise HypothesisViolationError(
                f"form factor {alpha} violates declared {phi.parity} parity "
                f"(max deviation {err:.3e})")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, spec.grid.size, size=(samples, 2))
    p = spec.grid.nodes[idx[:, 0]]
    q = spec.grid.nodes[idx[:, 1]]
    err = np.max(np.abs(spec.pair(p, q) - spec.pair(-p, -q)))
    if err > 1e-9 * max(1.0, abs(spec.M)):
        raise HypothesisViolationError(f"pair energy is not even: max deviation {err:.3e}")


def pair_matrix(spec: ModelSpec, out: Optional[np.ndarray] = None,
                rows: Optional[np.ndarray] = None,
                cols: Optional[np.ndarray] = None) -> np.ndarray:
    """Dense u(t_i, p_j) over all point pairs (rows = first slot).

    The points t (rows) and p (cols) default to the grid nodes.  Separable
    sum-form models assemble through per-axis cosine outer products;
    everything else evaluates the pair energy chunk by chunk.
    """
    t = spec.grid.nodes if rows is None else rows
    p = spec.grid.nodes if cols is None else cols
    U = np.empty((t.shape[0], p.shape[0])) if out is None else out
    if spec.pair.form == "sum-of-dispersions" and spec.pair.dispersion.separable:
        w = np.array(spec.pair.dispersion.axis_weights)
        c = spec.pair.cross_weight
        C = np.cos(t) * w
        S = np.sin(t) * w
        Cu = np.cos(p)
        Su = np.sin(p)
        et = np.sum(w * (1.0 - np.cos(t)), axis=1)
        ep = np.sum(w * (1.0 - Cu), axis=1)
        wsum = w.sum()
        step = max(1, _CHUNK_BYTES // (8 * p.shape[0]))
        for i0 in range(0, t.shape[0], step):
            i1 = min(t.shape[0], i0 + step)
            # c * eps(t - p) = c * (wsum - sum_a w_a cos(t_a - p_a))
            U[i0:i1] = c * (wsum - C[i0:i1] @ Cu.T - S[i0:i1] @ Su.T)
            U[i0:i1] += et[i0:i1, None]
            U[i0:i1] += ep[None, :]
    else:
        step = max(1, _EVAL_CHUNK_BYTES // (24 * p.shape[0]))
        for i0 in range(0, t.shape[0], step):
            U[i0:i0 + step] = spec.pair.evaluator(t[i0:i0 + step, None, :],
                                                  p[None, :, :])
    return U


def _fd_second_blocks(f: Callable, h: float) -> np.ndarray:
    """Central-difference 6x6 Hessian of f: R^6 -> R at the origin."""
    H = np.empty((6, 6))
    e = np.eye(6)
    f0 = f(np.zeros(6))
    for i in range(6):
        H[i, i] = (f(h * e[i]) - 2 * f0 + f(-h * e[i])) / h ** 2
    for i in range(6):
        for j in range(i + 1, 6):
            v = h * (e[i] + e[j])
            wv = h * (e[i] - e[j])
            H[i, j] = H[j, i] = (f(v) + f(-v) - f(wv) - f(-wv)) / (4 * h ** 2)
    return H


def hessian_at_minimum(spec: ModelSpec, h: float = 1e-3,
                       residual_tol: float = 1e-4) -> HessianData:
    """Extract (l1, l, l2, U) from finite-difference blocks at the minimum.

    Central differences with one Richardson step (h and h/2); the factorization
    blocks = (l1, l, l2) x U is gauged by det U = 1.  Raises the
    hypothesis-violation error when U fails positive definiteness or
    l1 l2 - l^2 <= 0, and the not-of-product-form error when the blocks do not
    factor within `residual_tol` (relative).
    """
    if spec.pair.dispersion is not None and spec.pair.dispersion.kind == "tabulated":
        raise NotProductFormError(
            "trilinear-tabulated dispersions have no meaningful finite-difference "
            "Hessian; use a smooth evaluator")
    pm, qm = spec.argmin
    if np.linalg.norm(pm) > 1e-6 or np.linalg.norm(qm) > 1e-6:
        raise HypothesisViolationError(
            f"minimum is not at the origin: argmin = ({pm}, {qm})")

    def f(v):
        return float(spec.pair.evaluator(v[:3][None, :], v[3:][None, :])[0])

    H_h = _fd_second_blocks(f, h)
    H_h2 = _fd_second_blocks(f, h / 2)
    H = H_h2 + (H_h2 - H_h) / 3.0           # one Richardson step, O(h^4)
    B = [H[:3, :3], H[:3, 3:], H[3:, 3:]]
    B = [0.5 * (b + b.T) for b in B]

    # alternating least squares on ||B_k - l_k U||^2, then det-1 gauge
    U = B[0] / np.cbrt(abs(np.linalg.det(B[0])))
    ls = np.array([1.0, 0.0, 1.0])
    for _ in range(50):
        uu = float(np.sum(U * U))
        ls = np.array([np.sum(b * U) / uu for b in B])
        U_new = sum(l * b for l, b in zip(ls, B)) / float(np.sum(ls ** 2))
        if np.max(np.abs(U_new - U)) < 1e-14:
            U = U_new
            break
        U = U_new
    detU = np.linalg.det(U)
    if detU <= 0:
        raise HypothesisViolationError("extracted U has nonpositive determinant")
    scale = np.cbrt(detU)
    U = U / scale
    ls = ls * scale

    scale_ref = max(np.max(np.abs(b)) for b in B)
    residual = max(np.max(np.abs(b - l * U)) for b, l in zip(B, ls)) / scale_ref
    if residual > residual_tol:
        raise NotProductFormError(
            f"second-derivative blocks are not of product form "
            f"(relative residual {residual:.3e} > {residual_tol:.1e})")

    l1, l, l2 = (float(x) for x in ls)
    if np.linalg.eigvalsh(U)[0] <= 0 or l1 <= 0 or l2 <= 0:
        raise HypothesisViolationError("Hessian structure is not positive definite")
    if l1 * l2 - l * l <= 0:
        raise HypothesisViolationError(
            f"l1 l2 - l^2 = {l1 * l2 - l * l:.3e} <= 0: reduced mass form degenerate")
    return HessianData(U=U, l1=l1, l2=l2, l=l, detU=float(np.linalg.det(U)),
                       n1=(l1 * l2 - l * l) / l2, n2=(l1 * l2 - l * l) / l1,
                       residual=float(residual))


@dataclass(frozen=True)
class CndReport:
    """Result of the conditional-negative-definiteness sampling check."""

    passed: bool
    worst: float
    samples: int


def check_conditionally_negative_definite(eps: Dispersion, sample_count: int = 200,
                                          seed: int = 0, tol: float = 1e-10) -> CndReport:
    """Sample the form sum eps(p_i - p_j) z_i conj(z_j) over zero-sum z.

    Draws point tuples of size <= 6 and complex weights with sum 0; the form
    must stay <= tol for a conditionally negative definite dispersion.
    """
    if sample_count < 2:
        raise ModelDataError("sample_count must be >= 2")
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(sample_count):
        k = int(rng.integers(2, 7))
        pts = rng.uniform(-np.pi, np.pi, size=(k, 3))
        z = rng.normal(size=k) + 1j * rng.normal(size=k)
        z -= z.mean()
        diffs = pts[:, None, :] - pts[None, :, :]
        E = eps(diffs)
        form = np.einsum("ij,i,j->", E, z, np.conj(z))
        worst = max(worst, float(form.real))
    return CndReport(passed=worst <= tol, worst=worst, samples=sample_count)
