"""Shared independent oracles for the test suite.

Everything here is deliberately built on different machinery than the package:
Bessel-function reductions, adaptive quadrature, direct sphere-mesh
discretizations and the unfolded 64-node sinh-ratio rule for the Efimov modes,
so oracle and implementation never share a code path.
`checkout_env` points subprocess tests at the package under test, and
`traced_peak` measures what a call allocates.
"""
import os
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss, legval, legvander
from scipy.integrate import quad
from scipy.linalg import svdvals, toeplitz
from scipy.special import ive


def checkout_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH, so a
    subprocess imports this checkout's package whether or not one is installed."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc, numpy buffers included, while fn()
    runs; fn's exceptions propagate."""
    tracemalloc.start()
    try:
        fn()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def lambda_exact_builtin(s: float, cross_weight: float = 1.0) -> float:
    """Exact Lambda(0, m - s) for the cosine model, phi == 1, either channel.

    u(t, 0) = (1 + c) eps(t) and 1/(x) = int_0^inf e^{-x y} dy reduce the torus
    integral to (2 pi)^3 int_0^inf e^{-s y} [e^{-(1+c) y} I0((1+c) y)]^3 dy.
    """
    c = 1.0 + cross_weight

    def f(y):
        return np.exp(-s * y) * ive(0, c * y) ** 3

    val, err = quad(f, 0.0, np.inf, limit=400)
    assert err < 1e-6 * max(val, 1e-30)
    return (2 * np.pi) ** 3 * val


def richardson_1_over_n(ns, values) -> float:
    """Least-squares intercept of values ~ a + b/n."""
    ns = np.asarray(ns, dtype=float)
    A = np.stack([np.ones_like(ns), 1.0 / ns], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.asarray(values, dtype=float), rcond=None)
    return float(coef[0])


def sphere_mesh(n_theta: int = 16, n_phi: int = 32):
    """Gauss-Legendre x uniform-azimuth product mesh on S^2 with weights."""
    c, wc = leggauss(n_theta)
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    wphi = 2 * np.pi / n_phi
    st = np.sqrt(1.0 - c ** 2)
    pts = np.stack([
        np.outer(st, np.cos(phi)).ravel(),
        np.outer(st, np.sin(phi)).ravel(),
        np.outer(c, np.ones(n_phi)).ravel(),
    ], axis=1)
    w = np.outer(wc, np.full(n_phi, wphi)).ravel()
    return pts, w


def sphere_nystrom_count(params, lam: float, mu: float,
                         n_theta: int = 16, n_phi: int = 32) -> int:
    """n(mu, Shat(lambda)) from a direct product-mesh discretization.

    Builds the cross block on the mesh (kernel of the Fourier-transformed
    Sobolev kernel) and counts singular values above mu; the +/- block spectrum
    makes that the count of eigenvalues above mu.
    """
    pts, w = sphere_mesh(n_theta, n_phi)
    t = np.clip(pts @ pts.T, -1.0, 1.0)
    b = np.pi - np.arccos(params.s12 * t)
    if lam < 1e-8:
        ratio = b / np.pi
    else:
        ratio = np.exp(lam * (b - np.pi)) * (-np.expm1(-2 * lam * b)) \
            / (-np.expm1(-2 * lam * np.pi))
    kernel = params.u12 / (2 * np.pi) * ratio / np.sqrt(1.0 - params.s12 ** 2 * t ** 2)
    sw = np.sqrt(w)
    A = sw[:, None] * kernel * sw[None, :]
    sv = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(sv > mu))


def sinh_ratio_modes(params, lams, ell_max: int) -> np.ndarray:
    """Modes shat_l(lambda), l = 0..ell_max, by the unfolded 64-node
    Gauss-Legendre rule: the sinh ratio sinh(lambda b)/sinh(lambda pi),
    b = pi - arccos(s12 t), over sqrt(1 - s12^2 t^2) on all 64 nodes, projected
    onto the Legendre rows by one einsum (lambda pi < 1e-8 takes the limit
    b/pi).  Shape (ell_max + 1, lams.size)."""
    x, w = _gauss(64)
    lam_b = np.asarray(lams, dtype=float)[:, None] * (np.pi - np.arccos(params.s12 * x))
    lam_pi = np.asarray(lams, dtype=float)[:, None] * np.pi
    small = lam_pi < 1e-8
    safe = np.where(small, 1.0, lam_pi)
    ratio = np.exp(lam_b - safe) * (-np.expm1(-2 * lam_b)) / (-np.expm1(-2 * safe))
    integ = np.where(small, (np.pi - np.arccos(params.s12 * x)) / np.pi, ratio) \
        / np.sqrt(1.0 - params.s12 ** 2 * x ** 2)
    P = legvander(x, ell_max).T * w
    return params.u12 * np.einsum("lk,nk->ln", P, integ)


@lru_cache(maxsize=None)
def _gauss(npts: int):
    return leggauss(npts)


def legendre_projection(fn, ell: int, npts: int = 400):
    """2 pi int_-1^1 P_ell(t) fn(t) dt by dense Gauss-Legendre (oracle grade).

    fn(t) may carry leading axes before the t axis; the result keeps them.
    """
    x, w = _gauss(npts)
    P = legval(x, np.eye(ell + 1)[ell])
    return 2 * np.pi * np.sum(w * P * fn(x), axis=-1)


@lru_cache(maxsize=None)
def _toeplitz_singular_values(params, r: float, ell: int) -> np.ndarray:
    """Singular values of the degree-ell block K_ij = h s_l(x_i - x_j) on the
    ceil(8 r) midpoints x_i of (0, r) with step h, where s_l(y) is the dense
    Legendre projection of S(y, t) = (2 pi)^{-2} u12 / (cosh(y + r12) + s12 t).
    They do not depend on mu, so each (params, r, ell) is built once."""
    nn = int(np.ceil(8 * r))
    h = r / nn
    y = np.arange(-(nn - 1), nn) * h                 # x_i - x_j, i - j = -(nn-1)..nn-1
    s = legendre_projection(
        lambda t: params.u12 / (2 * np.pi) ** 2
        / (np.cosh(y + params.r12)[:, None] + params.s12 * t), ell)
    return svdvals(h * toeplitz(s[nn - 1:], s[nn - 1::-1]))


def sobolev_toeplitz_count(params, r: float, mu: float, ell_max: int):
    """n(mu, S_r) from the Toeplitz Nystrom blocks and their singular values
    (see _toeplitz_singular_values).  Every degree up to ell_max is counted.
    Returns (count, margin), margin being the smallest |sigma - mu| / mu over
    all singular values, the distance from a tie.
    """
    count, margin = 0, np.inf
    for ell in range(ell_max + 1):
        sv = _toeplitz_singular_values(params, r, ell)
        count += (2 * ell + 1) * int(np.sum(sv > mu))
        margin = min(margin, float(np.min(np.abs(sv - mu))) / mu)
    return count, margin
