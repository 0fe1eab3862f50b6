"""Dispersions, pair energies, form factors and the model container.

The reference model is u(p,q) = eps(p) + c*eps(p-q) + eps(q) with
eps(q) = sum_a w_a (1 - cos q_a); c = 1 and w = (1,1,1) is the textbook case.
Everything downstream only assumes: u even, unique nondegenerate minimum at
(0,0) whose second-derivative blocks are (l1 U, l U, l2 U).

u on node sets has one evaluator, pair_matrix: rows and columns are C-order
products of per-axis node lists, and the builtin band is summed from per-axis
cosine tables in the evaluator's order, so its entries are the model's own u
bit for bit.  ModelSpec.channel_values is its one-point column or row.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import prod
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from .errors import (DegenerateModelError, HypothesisViolationError,
                     ModelDataError, NotProductFormError)
from .grids import TWO_PI, TorusGrid, build_grid, product_nodes, wrap_to_torus

# dense product scans above this many pair evaluations fall back to subsampling
_PAIR_SCAN_CAP = 200_000_000
# chunk size of the (rows, cols, 3) input handed to a generic pair evaluator
_EVAL_CHUNK_BYTES = 1 << 22


def builtin_epsilon(q: np.ndarray) -> np.ndarray:
    """3 - cos q1 - cos q2 - cos q3, vectorized over the last axis."""
    q = np.asarray(q, dtype=float)
    return 3.0 - np.cos(q[..., 0]) - np.cos(q[..., 1]) - np.cos(q[..., 2])


@dataclass(frozen=True)
class Dispersion:
    """A single-particle dispersion on the torus.

    kind is one of "builtin" (cosine family, optionally axis-weighted, with
    the exact fast paths of PairEnergy.separable), "tabulated" (periodic
    trilinear interpolation of nodal values) or "custom" (arbitrary evaluator).
    """

    kind: str
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    axis_weights: Optional[tuple[float, float, float]] = None

    def __call__(self, q: np.ndarray) -> np.ndarray:
        return self.fn(q)


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

    @property
    def separable(self) -> bool:
        """The builtin cosine sum form, which has the exact separable fast paths."""
        return self.form == "sum-of-dispersions" and self.dispersion.kind == "builtin"


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
        """u_p^(alpha) on the integration nodes: u(t,p) for alpha=1, u(p,t) for 2,
        the pair_matrix column (alpha = 1) or row (alpha = 2) of the one point p."""
        if alpha not in (1, 2):
            raise ModelDataError(f"channel must be 1 or 2, got {alpha}")
        point = np.asarray(p, dtype=float).reshape(3, 1)
        vals = (pair_matrix(self, cols=point) if alpha == 1
                else pair_matrix(self, rows=point)).ravel()
        if not np.all(np.isfinite(vals)):
            raise ModelDataError("channel energies contain non-finite values")
        return vals

    def with_params(self, **kw) -> "ModelSpec":
        return replace(self, **kw)


def extrema(pair: PairEnergy, grid: TorusGrid):
    """Global (m, M, argmin) of u.

    The builtin cosine band is u = sum_a w_a g(p_a, q_a) with
    g(x, y) = (1 - cos x) + c (1 - cos(x - y)) + (1 - cos y), so m = 0 at the
    origin and M = (sum_a w_a) g_max in closed form: g_max = 2 + 2c + 1/(2c),
    at x = -y = arccos(-1/(2c)), for c > 1/2, and g_max = 4, at x = y = pi,
    otherwise.  Other sum forms scan the product grid through its difference
    structure, custom pair energies take a chunked full scan up to a pair cap
    and a coarse subsampled scan beyond it; smooth ones are then refined by
    Nelder-Mead.
    """
    if pair.separable:
        c = pair.cross_weight
        g_max = 2.0 + 2.0 * c + 0.5 / c if c > 0.5 else 4.0
        return 0.0, sum(pair.dispersion.axis_weights) * g_max, (np.zeros(3), np.zeros(3))
    nodes = grid.nodes
    if pair.form == "sum-of-dispersions":
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

    return float(m), float(M), (pmin, qmin)


def make_model(pair: PairEnergy, n: int, mu1: float, mu2: float,
               phi1: Optional[FormFactor] = None,
               phi2: Optional[FormFactor] = None) -> ModelSpec:
    """Assemble and validate a ModelSpec on an n^3 shifted grid."""
    grid = build_grid(n)
    phi1 = phi1 if phi1 is not None else const_form_factor(1)
    phi2 = phi2 if phi2 is not None else const_form_factor(2)
    if not all(np.isfinite(float(mu)) and float(mu) >= 0 for mu in (mu1, mu2)):
        raise ModelDataError(f"couplings must be finite and nonnegative, got {mu1}, {mu2}")
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


def grid_equal(moved: np.ndarray, vals: np.ndarray) -> bool:
    """Grid values equal within 1e-9 max(1, max |vals|), one temporary."""
    diff = np.subtract(moved, vals)
    return np.abs(diff, out=diff).max() <= 1e-9 * max(1.0, vals.max(), -vals.min())


def has_flip_parity(v: np.ndarray, axes, sign: int) -> bool:
    """Whether grid values v, as an (n, n, n) array, equal sign times their
    flip on `axes` under grid_equal: the flip reverses those axes (see grids)."""
    return grid_equal(np.flip(v, axes), v if sign > 0 else -v)


def evenness_deviation(spec: ModelSpec, samples: int, seed: int) -> float:
    """max |u(p, q) - u(-p, -q)| on `samples` node pairs drawn from `seed`."""
    idx = np.random.default_rng(seed).integers(0, spec.grid.size, size=(samples, 2))
    p, q = spec.grid.nodes[idx[:, 0]], spec.grid.nodes[idx[:, 1]]
    return float(np.max(np.abs(spec.pair(p, q) - spec.pair(-p, -q))))


def _validate_symmetries(spec: ModelSpec) -> None:
    for alpha in (1, 2):
        phi = spec.phi(alpha)
        v = spec.phi_values(alpha).reshape((spec.grid.n,) * 3)
        sign = 1 if phi.parity == "even" else -1
        if not has_flip_parity(v, (0, 1, 2), sign):
            raise HypothesisViolationError(
                f"form factor {alpha} violates declared {phi.parity} parity "
                f"(max deviation {np.max(np.abs(np.flip(v) - sign * v)):.3e})")
    err = evenness_deviation(spec, 512, 0)
    if err > 1e-9 * max(1.0, abs(spec.M)):
        raise HypothesisViolationError(f"pair energy is not even: max deviation {err:.3e}")


def pair_matrix(spec: ModelSpec, out: Optional[np.ndarray] = None,
                rows: Optional[Sequence[np.ndarray]] = None,
                cols: Optional[Sequence[np.ndarray]] = None) -> np.ndarray:
    """Dense u(t_i, p_j) (rows = first slot) over the C-order products t of
    the three per-axis node lists `rows` and p of `cols`, by default the
    grid's axis nodes on each axis.

    The builtin sum form is summed from the per-axis tables
    D_a = w_a (1 - cos(t_a - p_a)) in the evaluator's order, so every entry
    is spec.pair(t, p) bit for bit: D_0 + D_1 on the small (a0 a1, b0 b1)
    table, plus D_2 broadcast into `out`, times c, plus eps(t), plus eps(p).
    Every other form evaluates the pair energy on the products' points
    chunk by chunk.
    """
    x = spec.grid.axis
    rows, cols = ([x] * 3 if v is None else [np.asarray(l, dtype=float).ravel() for l in v]
                  for v in (rows, cols))
    shape = tuple(len(l) for l in rows) + tuple(len(l) for l in cols)
    U = np.empty((prod(shape[:3]), prod(shape[3:]))) if out is None else out
    pair = spec.pair
    if pair.separable:
        w, c = pair.dispersion.axis_weights, pair.cross_weight
        D = [w[a] * (1.0 - np.cos(np.subtract.outer(t, p)))
             for a, (t, p) in enumerate(zip(rows, cols))]
        V = U.view()
        V.shape = shape     # splits U's two axes, a view for any strides
        np.add(np.add(D[0][:, None, None, :, None, None], D[1][None, :, None, None, :, None]),
               D[2][None, None, :, None, None, :], out=V)
        U *= c
        U += _eps_on_product(w, rows)[:, None]
        U += _eps_on_product(w, cols)[None, :]
    else:
        t, p = product_nodes(rows), product_nodes(cols)
        step = max(1, _EVAL_CHUNK_BYTES // (24 * p.shape[0]))
        for i0 in range(0, t.shape[0], step):
            U[i0:i0 + step] = pair.evaluator(t[i0:i0 + step, None, :], p[None, :, :])
    return U


def _eps_on_product(w, lists) -> np.ndarray:
    """The builtin eps = sum_a w_a (1 - cos q_a) on the C-order product of the
    per-axis lists, summed in the evaluator's order."""
    e = [w[a] * (1.0 - np.cos(x)) for a, x in enumerate(lists)]
    return (np.add.outer(e[0], e[1])[:, :, None] + e[2]).ravel()


def _fd_stencil(h: float) -> np.ndarray:
    """The 73 points in R^6 of the central-difference Hessian at the origin
    with step h, in the order _fd_second_blocks reads their values: the
    origin, +-h e_i, then +-h (e_i + e_j) and +-h (e_i - e_j) for i < j."""
    e = np.eye(6)
    points = [np.zeros(6)]
    for i in range(6):
        points += [h * e[i], -h * e[i]]
    for i in range(6):
        for j in range(i + 1, 6):
            v = h * (e[i] + e[j])
            wv = h * (e[i] - e[j])
            points += [v, -v, wv, -wv]
    return np.array(points)


def _fd_second_blocks(f: np.ndarray, h: float) -> np.ndarray:
    """Central-difference 6x6 Hessian at the origin from the values f of a
    function R^6 -> R on _fd_stencil(h)."""
    H = np.empty((6, 6))
    f0, at = f[0], iter(f[1:])
    for i in range(6):
        H[i, i] = (next(at) - 2 * f0 + next(at)) / h ** 2
    for i in range(6):
        for j in range(i + 1, 6):
            fv, fmv, fw, fmw = next(at), next(at), next(at), next(at)
            H[i, j] = H[j, i] = (fv + fmv - fw - fmw) / (4 * h ** 2)
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

    points = np.concatenate([_fd_stencil(h), _fd_stencil(h / 2)])
    values = spec.pair.evaluator(points[:, :3], points[:, 3:])     # one call
    H_h, H_h2 = (_fd_second_blocks(f, step) for f, step in
                 zip(np.split(values, 2), (h, h / 2)))
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
