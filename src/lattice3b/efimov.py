"""Efimov asymptotics: the sphere operator modes, the coefficient U(mu), the
finite Sobolev-type operator S_r and the observed log-slope of N(z).

The sphere operator at frequency lambda is the Fourier transform in y = x - x'
of the kernel S(y, t) = (2 pi)^{-2} u12 / (cosh(y + r12) + s12 t):

    shat(lambda; t) = (2 pi)^{-1} u12 e^{i r12 lambda}
                      sinh[lambda (pi - arccos(s12 t))]
                      / (sqrt(1 - s12^2 t^2) sinh(pi lambda)),

and its degree-l eigenvalue (Funk-Hecke) is 2 pi int P_l(t) shat(lambda; t) dt
with multiplicity 2l + 1.  Counting uses only the modulus, so the phase and the
sign convention of s12 (arccos(-s t) = pi - arccos(s t) and Legendre parity)
never enter.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss, legval

from .errors import DegenerateCouplingError, InsufficientDataError, ModelDataError
from .model import HessianData
from .reports import CountReport

ELL_MAX = 40
LAMBDA_MAX = 50.0
N_LAMBDA = 20001
GL_NODES = 64


@dataclass(frozen=True)
class EfimovParams:
    """Derived constants of the asymptotic kernels."""

    u12: float
    r12: float
    s12: float

    def __post_init__(self):
        if not abs(self.s12) < 1:
            raise DegenerateCouplingError(f"s12 = {self.s12} must lie in (-1, 1)")
        if self.u12 <= 0:
            raise DegenerateCouplingError(f"u12 = {self.u12} must be positive")


def efimov_params(h: HessianData) -> EfimovParams:
    """u12 = sqrt(l1 l2/(l1 l2 - l^2)), r12 = log(l1/l2)/2, s12 = l/sqrt(l1 l2)."""
    if h.l == 0:
        raise DegenerateCouplingError("l = 0: the cross kernels vanish")
    disc = h.l1 * h.l2 - h.l ** 2
    if disc <= 0:
        raise DegenerateCouplingError(f"l1 l2 - l^2 = {disc} must be positive")
    return EfimovParams(u12=float(np.sqrt(h.l1 * h.l2 / disc)),
                        r12=float(0.5 * np.log(h.l1 / h.l2)),
                        s12=float(h.l / np.sqrt(h.l1 * h.l2)))


_GLX, _GLW = leggauss(GL_NODES)


def _legendre_rows(ell_max: int) -> np.ndarray:
    eye = np.eye(ell_max + 1)
    return np.stack([legval(_GLX, eye[l]) for l in range(ell_max + 1)])


def _sinh_ratio(lam, b):
    """sinh(lam b)/sinh(lam pi) for b in (0, pi), stable for any lam >= 0."""
    lam = np.asarray(lam, dtype=float)
    b = np.asarray(b, dtype=float)
    lam_b = lam * b
    lam_pi = lam * np.pi
    small = lam_pi < 1e-8
    safe = np.where(small, 1.0, lam_pi)
    out = np.exp(lam_b - safe) * (-np.expm1(-2 * lam_b)) / (-np.expm1(-2 * safe))
    return np.where(small, b / np.pi, out)


def legendre_mode(params: EfimovParams, ell: int, lam: float) -> float:
    """Degree-ell eigenvalue of the off-diagonal sphere-operator block.

    2 pi int P_ell(t) (2 pi)^{-1} u12 sinh[lam(pi - arccos(s12 t))] /
    (sqrt(1 - s12^2 t^2) sinh(pi lam)) dt by 64-node Gauss-Legendre; the phase
    e^{i r12 lam} is carried separately since only |mode| enters any count.
    lam = 0 takes the limit value (pi - arccos(s t))/pi of the sinh ratio.
    """
    if ell < 0:
        raise ModelDataError("ell must be nonnegative")
    if lam < 0:
        raise ModelDataError("lam must be nonnegative (modes are even in lambda)")
    P = legval(_GLX, np.eye(ell + 1)[ell])
    b = np.pi - np.arccos(params.s12 * _GLX)
    integ = P * _sinh_ratio(lam, b) / np.sqrt(1.0 - params.s12 ** 2 * _GLX ** 2)
    return float(params.u12 * np.sum(_GLW * integ))


@dataclass(frozen=True)
class ModeTable:
    """Mode values shat_l(lambda_j) on a product (ell, lambda) table."""

    params: EfimovParams
    ells: np.ndarray
    lams: np.ndarray
    values: np.ndarray = field(repr=False)      # (n_ell, n_lam)

    def counts(self, mu: float) -> np.ndarray:
        """n(mu, Shat(lambda_j)) for every lambda on the table."""
        mult = (2 * self.ells + 1)[:, None]
        return ((np.abs(self.values) > mu) * mult).sum(axis=0)

    def mode_max(self) -> np.ndarray:
        return np.abs(self.values).max(axis=1)

    def to_csv(self) -> str:
        lines = ["ell,lam,value"]
        for i, ell in enumerate(self.ells):
            lines += [f"{int(ell)},{lam:.12g},{v:.12g}"
                      for lam, v in zip(self.lams, self.values[i])]
        return "\n".join(lines) + "\n"


def mode_table(params: EfimovParams, ell_max: int = ELL_MAX,
               lam_max: float = LAMBDA_MAX, n_lam: int = N_LAMBDA) -> ModeTable:
    """Tabulate all modes; vectorized over the (ell, lambda) product."""
    if ell_max < 0 or not lam_max > 0 or n_lam < 2:
        raise ModelDataError(f"mode table needs ell_max >= 0, lam_max > 0 and n_lam >= 2, "
                             f"got {ell_max}, {lam_max}, {n_lam}")
    lams = np.linspace(0.0, lam_max, n_lam)
    b = np.pi - np.arccos(params.s12 * _GLX)
    ratio = _sinh_ratio(lams[:, None], b[None, :])          # (n_lam, 64)
    integ = ratio / np.sqrt(1.0 - params.s12 ** 2 * _GLX ** 2)
    P = _legendre_rows(ell_max) * _GLW
    values = params.u12 * np.einsum("lk,nk->ln", P, integ)
    return ModeTable(params=params, ells=np.arange(ell_max + 1), lams=lams,
                     values=values)


def count_sphere_operator(params: EfimovParams, lam: float, mu: float,
                          ell_max: int = ELL_MAX) -> int:
    """n(mu, Shat(lambda)) = sum_l (2l+1) [ |shat_l(lambda)| > mu ].

    The two-channel block operator with zero diagonal and cross kernels of
    equal modulus has eigenvalues +/- |shat_l| with multiplicity 2l + 1.
    """
    if mu <= 0:
        raise ModelDataError("mu must be positive")
    modes = np.array([legendre_mode(params, l, lam) for l in range(ell_max + 1)])
    return int(np.sum((np.abs(modes) > mu) * (2 * np.arange(ell_max + 1) + 1)))


def ucoef(params: EfimovParams, mu: float, ell_max: int = ELL_MAX,
          lam_max: float = LAMBDA_MAX, n_lam: int = N_LAMBDA,
          table: ModeTable | None = None) -> float:
    """U(mu) = (4 pi)^{-1} int_R n(mu, Shat(lambda)) dlambda.

    The integrand is even and integer valued with exponentially decaying
    support; trapezoid over [0, lam_max], doubled.
    """
    if mu <= 0:
        raise ModelDataError("mu must be positive")
    tbl = table if table is not None else mode_table(params, ell_max, lam_max, n_lam)
    counts = tbl.counts(mu)
    return float(2.0 * np.trapezoid(counts, tbl.lams) / (4 * np.pi))


def sobolev_1d_kernel(params: EfimovParams, ell: int, y: np.ndarray) -> np.ndarray:
    """Per-degree radial kernel s_l(y) = 2 pi int P_l(t) S(y, t) dt.

    S(y, t) = (2 pi)^{-2} u12 / (cosh(y + r12) + s12 t); Gauss-Legendre in t.
    """
    y = np.asarray(y, dtype=float)
    P = legval(_GLX, np.eye(ell + 1)[ell]) * _GLW
    # cosh overflows beyond ~710; the kernel is ~1e-300 there, clip instead
    arg = np.minimum(np.abs(y + params.r12), 700.0)
    den = np.cosh(arg)[..., None] + params.s12 * _GLX
    return (params.u12 / (2 * np.pi)) * (1.0 / den) @ P


def sobolev_finite(params: EfimovParams, r: float, mu: float,
                   ell_max: int = ELL_MAX, nodes_per_unit: int = 8,
                   table: ModeTable | None = None) -> int:
    """n(mu, S_r): total count of singular values of the finite operator above mu.

    Per degree l the 1D block on (0, r) is Nystrom-discretized with ceil(8 r)
    midpoint nodes; its singular values cannot exceed sup_lambda |shat_l|, so
    degrees whose symbol maximum stays below mu are skipped outright.
    """
    if r <= 0 or mu <= 0:
        raise ModelDataError("r and mu must be positive")
    tbl = table if table is not None else mode_table(params, ell_max)
    sym_max = tbl.mode_max()
    nn = int(np.ceil(nodes_per_unit * r))
    step = r / nn
    x = (np.arange(nn) + 0.5) * step
    diffs = np.concatenate([x - x[-1], (x - x[0])[1:]])     # all distinct x_i - x_j
    total = 0
    for ell in range(ell_max + 1):
        if sym_max[ell] <= mu * (1.0 - 1e-9):
            continue
        vals = sobolev_1d_kernel(params, ell, diffs)
        idx = np.arange(nn)
        K = step * vals[(nn - 1) + (idx[:, None] - idx[None, :])]
        if abs(params.r12) < 1e-14:
            sv = np.abs(np.linalg.eigvalsh(K))
        else:
            sv = np.linalg.svd(K, compute_uv=False)
        total += (2 * ell + 1) * int(np.sum(sv > mu))
    return total


def asymptotic_slope(report: CountReport, min_points: int = 4) -> tuple[float, float]:
    """Least-squares slope of N(z) against |log(m - z)| over trusted rows.

    Returns (slope, rms residual); the natural comparison target is U(1).
    """
    mask = np.asarray(report.trusted, dtype=bool)
    if int(mask.sum()) < min_points:
        raise InsufficientDataError(
            f"need at least {min_points} trusted points, have {int(mask.sum())}")
    x = np.abs(np.log(report.m_minus_z[mask]))
    y = report.counts[mask].astype(float)
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    return float(coef[0]), float(np.sqrt(np.mean(resid ** 2)))
