"""One-channel analysis: the integral Lambda, the Fredholm determinant,
critical couplings, channel eigenvalues and threshold classification.

Channel conventions: u_p^(1)(q) = u(q, p) and u_p^(2)(q) = u(p, q); the
determinant Delta_mu(p, z) = 1 - mu * Lambda(p, z) vanishes exactly at the
discrete eigenvalues of the channel operator.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import (DegenerateModelError, ExpansionMismatchError,
                     ModelDataError, OutOfDomainError)
from .grids import TWO_PI, build_grid, wrap_to_torus
from .model import ModelSpec

# classification tolerances (relative on mu, absolute on phi(0))
CLASSIFY_RTOL = 1e-8
CLASSIFY_ATOL = 1e-12
ROOT_ATOL = 1e-10

# default fit window for the threshold expansion: the sqrt term is resolved on
# the shifted grid only for m - z of the order (2 pi / n)^2 and larger, so the
# window sits above the coarsest grid scale this toolkit targets (n >= 32)
FIT_WINDOW = (3e-2, 3e-1)
FIT_POINTS = 25


class ThresholdClass(enum.Enum):
    RESONANCE = "Resonance"
    THRESHOLD_EIGENVALUE = "ThresholdEigenvalue"
    REGULAR = "Regular"


@dataclass(frozen=True)
class ChannelRange:
    m_alpha: float
    M_alpha: float


@dataclass(frozen=True)
class ExpansionFit:
    """Threshold-expansion fit of Delta(0, z) against sqrt(m - z)."""

    sqrt_slope: float
    linear_coef: float
    residual: float
    window: tuple[float, float]
    npoints: int


def _other(alpha: int) -> int:
    return 2 if alpha == 1 else 1


def channel_range(spec: ModelSpec, alpha: int, p: np.ndarray) -> ChannelRange:
    """min/max of u_p^(alpha) over the q-grid, with local refinement."""
    vals = spec.channel_values(alpha, p)
    if not np.all(np.isfinite(vals)):
        raise ModelDataError("channel energies contain non-finite values")
    lo = float(vals.min())
    hi = float(vals.max())
    smooth = spec.pair.dispersion is None or spec.pair.dispersion.kind != "tabulated"
    if smooth:
        p = np.asarray(p, dtype=float).reshape(3)

        def f(q):
            q = q[None, :]
            pp = p[None, :]
            v = spec.pair(q, pp) if alpha == 1 else spec.pair(pp, q)
            return float(v[0])

        q0 = spec.grid.nodes[int(np.argmin(vals))]
        res = minimize(f, q0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000})
        lo = min(lo, float(res.fun))
        q0 = spec.grid.nodes[int(np.argmax(vals))]
        res = minimize(lambda q: -f(q), q0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000})
        hi = max(hi, float(-res.fun))
    return ChannelRange(m_alpha=lo, M_alpha=hi)


def _lambda_line(spec: ModelSpec, alpha: int, p: np.ndarray, z_values) -> list[float]:
    """Lambda_alpha(p, z) for each z in z_values (see lambda_integral).

    The channel energies, phi^2 and the channel range do not depend on z and
    are built once; each z then costs one subtraction and one sum.  Both
    domain checks bound z from above, so they are made on the largest z.
    """
    vals = spec.channel_values(alpha, p)
    z_top = max(z_values)
    gap = vals.min() - z_top          # == min(vals - z_top): rounding is monotone
    if gap <= 0.0:
        raise OutOfDomainError(
            f"z = {z_top} is not below the channel spectrum (min u - z = {gap:.3e})")
    m_alpha = channel_range(spec, alpha, p).m_alpha
    if z_top > m_alpha + 1e-12 * max(1.0, abs(m_alpha)):
        raise OutOfDomainError(f"z = {z_top} exceeds the channel bottom m_alpha = {m_alpha}")
    phi2 = spec.phi_values(alpha) ** 2
    return [float(spec.grid.weight * np.sum(phi2 / (vals - z))) for z in z_values]


def lambda_integral(spec: ModelSpec, alpha: int, p: np.ndarray, z: float) -> float:
    """Quadrature of Lambda_alpha(p, z) = int phi^2(t) / (u_p^(alpha)(t) - z) dt.

    Defined for real z <= m_alpha(p); strictly positive and increasing in z.
    """
    return _lambda_line(spec, alpha, p, (z,))[0]


def fredholm_det(spec: ModelSpec, alpha: int, p: np.ndarray, z: float,
                 mu: float | None = None) -> float:
    """Delta_mu(p, z) = 1 - mu * Lambda_alpha(p, z)."""
    mu = spec.mu(alpha) if mu is None else float(mu)
    return 1.0 - mu * lambda_integral(spec, alpha, p, z)


def coupling_threshold(spec: ModelSpec, alpha: int) -> float:
    """Critical coupling mu0 = 1 / Lambda_alpha(0, m).

    Tabulated (trilinear) models whose interpolated minimum is attained at a
    node make the threshold integral diverge on the grid; that surfaces as the
    degenerate-model error.
    """
    try:
        lam = lambda_integral(spec, alpha, np.zeros(3), spec.m)
    except OutOfDomainError as exc:
        raise DegenerateModelError(
            f"threshold integral diverges on this grid ({exc})") from exc
    if not np.isfinite(lam) or lam <= 0:
        raise DegenerateModelError(f"Lambda_alpha(0, m) = {lam} is not positive finite")
    return 1.0 / lam


def channel_eigenvalue(spec: ModelSpec, alpha: int, p: np.ndarray,
                       mu: float | None = None) -> float | None:
    """Unique root of Delta_mu(p, .) below m_alpha(p), or None.

    Lambda is strictly increasing in z, so Delta is strictly decreasing and a
    sign change brackets exactly one root; bisection to ROOT_ATOL.
    """
    mu = spec.mu(alpha) if mu is None else float(mu)
    if mu < 0:
        raise ModelDataError("coupling must be nonnegative")
    if mu == 0.0:
        return None
    rng_a = channel_range(spec, alpha, p)
    top = rng_a.m_alpha
    phi2max = float(np.max(spec.phi_values(alpha) ** 2))
    z_lo = top - (spec.M - spec.m) - mu * TWO_PI ** 3 * phi2max

    vals = spec.channel_values(alpha, p)
    phi2 = spec.phi_values(alpha) ** 2
    w = spec.grid.weight

    def delta(z):
        return 1.0 - mu * w * np.sum(phi2 / (vals - z))

    # the grid can place a node essentially at the channel bottom; back off
    eps_top = 1e-13 * max(1.0, abs(top))
    z_hi = min(top, vals.min() - eps_top)
    if delta(z_hi) >= 0.0:
        return None
    a, b = z_lo, z_hi
    if delta(a) <= 0.0:
        return None     # no sign change in the admissible bracket
    while b - a > ROOT_ATOL:
        c = 0.5 * (a + b)
        if delta(c) > 0.0:
            a = c
        else:
            b = c
    return 0.5 * (a + b)


def classify_threshold(spec: ModelSpec, alpha: int,
                       mu: float | None = None) -> ThresholdClass:
    """Resonance / threshold eigenvalue / regular, per the determinant criterion.

    Critical coupling with phi(0) != 0 is a resonance; with phi(0) = 0 a
    threshold eigenvalue; anything off-critical is regular.  Declared parity is
    used as exact ground truth for phi(0) when the form factor is odd.
    """
    mu = spec.mu(alpha) if mu is None else float(mu)
    mu0 = coupling_threshold(spec, alpha)
    if abs(mu - mu0) > CLASSIFY_RTOL * mu0:
        return ThresholdClass.REGULAR
    phi = spec.phi(alpha)
    phi0 = 0.0 if phi.parity == "odd" else phi.value_at_origin
    if abs(phi0) > CLASSIFY_ATOL:
        return ThresholdClass.RESONANCE
    return ThresholdClass.THRESHOLD_EIGENVALUE


def resonance_function_norm(spec: ModelSpec, alpha: int,
                            n_sequence: tuple[int, ...] = (16, 32, 64)) -> list[float]:
    """Quadrature of  int f^2  with f = phi/(u_0^(alpha) - m) on refining grids.

    A diverging sequence marks a threshold resonance (f not square integrable),
    a bounded one a threshold eigenvalue.
    """
    out = []
    for n in n_sequence:
        grid = build_grid(n)
        t = grid.nodes
        p0 = np.zeros((1, 3))
        pb = np.broadcast_to(p0, t.shape)
        vals = spec.pair(t, pb) if alpha == 1 else spec.pair(pb, t)
        phi = spec.phi(alpha)(t)
        f = phi / (vals - spec.m)
        out.append(float(grid.weight * np.sum(f * f)))
    return out


def expansion_fit(spec: ModelSpec, alpha: int,
                  window: tuple[float, float] = FIT_WINDOW,
                  npoints: int = FIT_POINTS,
                  residual_tol: float = 0.25) -> ExpansionFit:
    """Fit Delta_{mu0}(0, z) = a sqrt(m-z) + b (m-z) + c (m-z)^{3/2} on a window.

    Returns the sqrt coefficient a; for a channel with a threshold eigenvalue a
    is ~0 and the expansion starts at the linear term.  The window must sit at
    or above the grid's resolvable scale (2 pi / n)^2 for the sqrt term to be
    meaningful; raises the threshold-expansion-mismatch error when the relative
    rms residual exceeds residual_tol.
    """
    lo, hi = window
    if not 0 < lo < hi:
        raise ModelDataError(f"bad fit window {window!r}")
    mu0 = coupling_threshold(spec, alpha)
    s_vals = np.geomspace(lo, hi, npoints)
    y = 1.0 - mu0 * np.array(_lambda_line(spec, alpha, np.zeros(3), spec.m - s_vals))
    X = np.stack([np.sqrt(s_vals), s_vals, s_vals ** 1.5], axis=1)
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    rel = float(np.sqrt(np.mean(resid ** 2)) / max(np.sqrt(np.mean(y ** 2)), 1e-300))
    if rel > residual_tol:
        raise ExpansionMismatchError(
            f"threshold expansion fit residual {rel:.3e} exceeds {residual_tol}")
    return ExpansionFit(sqrt_slope=float(coef[0]), linear_coef=float(coef[1]),
                        residual=rel, window=(lo, hi), npoints=npoints)


def expansion_slope_extrapolated(make_spec, ns: tuple[int, ...] = (32, 48, 64),
                                 alpha: int = 1,
                                 window: tuple[float, float] = FIT_WINDOW,
                                 npoints: int = FIT_POINTS) -> float:
    """Richardson-extrapolate the fitted sqrt slope over grid resolutions.

    make_spec(n) must build the same model on an n^3 grid; the slopes carry an
    O(1/n) quadrature error, removed by a least-squares fit linear in 1/n.
    """
    slopes = []
    for n in ns:
        spec = make_spec(n)
        slopes.append(expansion_fit(spec, alpha, window, npoints).sqrt_slope)
    A = np.stack([np.ones(len(ns)), 1.0 / np.asarray(ns, dtype=float)], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.asarray(slopes), rcond=None)
    return float(coef[0])


def delta_at_threshold_bounds(spec: ModelSpec, alpha: int,
                              radii: tuple[float, float] = (0.05, 0.3),
                              directions: int = 20, seed: int = 3):
    """Discover c with Delta(p, m) >= c |p|^power on sampled |p| in radii.

    Returns (ratios_linear, ratios_quadratic): Delta/|p| and Delta/|p|^2 over
    the sample; their minima are the discovered constants.
    """
    mu0 = coupling_threshold(spec, alpha)
    rng = np.random.default_rng(seed)
    lin, quad = [], []
    for _ in range(directions):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        r = rng.uniform(*radii)
        p = wrap_to_torus(r * d)
        val = 1.0 - mu0 * lambda_integral(spec, alpha, p, spec.m)
        lin.append(val / r)
        quad.append(val / r ** 2)
    return np.array(lin), np.array(quad)
