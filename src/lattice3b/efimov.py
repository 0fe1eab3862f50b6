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

n(mu, S_r) is an inertia count at r12 = 0, where each degree's block K is
symmetric Toeplitz: by Sylvester's law, #{|eig K| > mu} follows from the signs
of the Levinson-Durbin prediction errors of K -/+ mu I, with no nn x nn matrix.
The degree-0 kernel is a positive combination of the positive-definite
functions 1/(cosh y + c), |c| < 1, so its block is positive semidefinite up
to a stated rounding bound and, for mu above it, needs the K - mu I pass
only.  At r12 != 0, and for a degree whose
smallest pivot falls below PIVOT_RTOL, one dense eigvalsh of the block's
Hankel form counts it instead.

The mode table folds the symmetric 64-node Gauss-Legendre rule onto its 32
positive nodes, where even degrees read cosh and odd degrees sinh ratios, and
is filled in slabs of LAMBDA_SLAB lambdas by one BLAS product per parity.
Every slab has the same width, the last one padded, so a column's bits do not
depend on the lambdas around it: legendre_mode is an entry of the default
table.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander
from scipy.linalg import hankel

from .errors import (DegenerateCouplingError, InsufficientDataError, ModelDataError,
                     require_memory)
from .model import HessianData
from .reports import CountReport

ELL_MAX = 40
LAMBDA_MAX = 50.0
N_LAMBDA = 20001
GL_NODES = 64
NODES_PER_UNIT = 8          # S_r Nystrom nodes per unit length
SLOPE_MIN_POINTS = 4        # trusted rows asymptotic_slope needs
# smallest Levinson pivot, relative to |h s_l(0)| + mu, that the inertia count
# of sobolev_finite trusts; below it the degree is counted densely
PIVOT_RTOL = 1e-8
# bound on -lambda_min of the computed degree-0 block of S_r at r12 = 0,
# relative to sum_d |h s_0(d h)| / (1 - |s12|); see _degree0_psd_bound
PSD_RTOL = 1e-12
# lambdas per slab of the mode table: a slab's three (32, LAMBDA_SLAB)
# half-node buffers (384 KB) stay in cache, and every slab, the padded last
# one and a single column included, is one BLAS product shape per parity
LAMBDA_SLAB = 512


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
# the rule is exactly symmetric, _GLX[-1 - k] == -_GLX[k] and _GLW[-1 - k] ==
# _GLW[k]: the mode table reads its positive half
_GLX_POS, _GLW_POS = _GLX[GL_NODES // 2:], _GLW[GL_NODES // 2:]


def _legendre_rows(ell_max: int) -> np.ndarray:
    return legvander(_GLX, ell_max).T


@lru_cache(maxsize=4)
def _half_legendre_rows(ell_max: int) -> np.ndarray:
    """P_l at the positive nodes, l = 0..ell_max: read-only and kept, as every
    single column (legendre_mode) reads the same rows."""
    rows = legvander(_GLX_POS, ell_max).T
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True)
class ModeTable:
    """Mode values shat_l(lambda_j) on a product (ell, lambda) table."""

    params: EfimovParams
    ells: np.ndarray
    lams: np.ndarray
    values: np.ndarray = field(repr=False)      # (n_ell, n_lam)

    def counts(self, mu: float) -> np.ndarray:
        """n(mu, Shat(lambda_j)) for every lambda on the table, read from the
        degrees whose maximum mode_max exceeds mu: the others add 0."""
        active = np.flatnonzero(self.mode_max > mu)
        mult = (2 * self.ells[active] + 1)[:, None]
        return ((np.abs(self.values[active]) > mu) * mult).sum(axis=0)

    @cached_property
    def mode_max(self) -> np.ndarray:
        """sup_lambda |shat_l| per degree, computed once per table."""
        return np.abs(self.values).max(axis=1)

    def to_csv(self) -> str:
        lines = ["ell,lam,value"]
        for i, ell in enumerate(self.ells):
            lines += [f"{int(ell)},{lam:.12g},{v:.12g}"
                      for lam, v in zip(self.lams, self.values[i])]
        return "\n".join(lines) + "\n"


def _modes(params: EfimovParams, lams: np.ndarray, ell_max: int) -> ModeTable:
    """All modes l = 0..ell_max at the given lambdas.

    shat_l(lambda) = 2 pi int P_l(t) (2 pi)^{-1} u12 sinh[lambda(pi - arccos(s12 t))]
    / (sqrt(1 - s12^2 t^2) sinh(pi lambda)) dt by 64-node Gauss-Legendre; the
    phase e^{i r12 lambda} is dropped since only |mode| enters any count.

    The rule is folded onto its 32 positive nodes x: leggauss is exactly
    symmetric, P_l(-x) = (-1)^l P_l(x), and the integrand at -x is the one at
    x with pi - arccos(s12 x) replaced by arccos(s12 x).  With beta =
    arcsin(s12 x) = pi/2 - arccos(s12 x) and root = sqrt(1 - s12^2 x^2), each
    pair of nodes contributes
        even l:  cosh(lambda beta) / (cosh(lambda pi/2) root),
        odd l:   sinh(lambda beta) / (sinh(lambda pi/2) root),
    read in the stable forms g (2 + f) / (1 + e^{-lambda pi}) and
    sign(beta) g f / expm1(-lambda pi), g = e^{lambda(|beta| - pi/2)} and
    f = expm1(-2 lambda |beta|), with the odd limit 2 beta / (pi root) where
    lambda pi < 1e-8 (the even form is exact at lambda = 0).  The weights,
    1/root and sign(beta) = sign(s12) sit in the Legendre rows, the lambda
    factors and u12 scale the columns.  At s12 = 0, beta = 0 and every odd
    mode is exactly 0.

    The table is filled LAMBDA_SLAB lambdas at a time by two BLAS products,
    the even rows times the even sums and the odd rows times the odd sums.  A
    BLAS product's summation order can follow its shape, so every slab has
    exactly LAMBDA_SLAB columns, the last one padded with its last lambda:
    each column is then bit-identical to the one-lambda table with the same
    ell_max.
    """
    s12 = params.s12
    beta = np.abs(np.arcsin(s12 * _GLX_POS))[:, None]
    P = _half_legendre_rows(ell_max) * (_GLW_POS / np.sqrt(1.0 - (s12 * _GLX_POS) ** 2))
    P_even = np.ascontiguousarray(P[0::2])
    P_odd = np.ascontiguousarray(P[1::2] * np.sign(s12))
    values = np.empty((ell_max + 1, lams.size))
    lam = np.empty(LAMBDA_SLAB)
    grow, fall, sums = np.empty((3, _GLX_POS.size, LAMBDA_SLAB))
    out_even = np.empty((P_even.shape[0], LAMBDA_SLAB))
    out_odd = np.empty((P_odd.shape[0], LAMBDA_SLAB))
    for j in range(0, lams.size, LAMBDA_SLAB):
        width = min(LAMBDA_SLAB, lams.size - j)
        lam[:width] = lams[j:j + width]
        lam[width:] = lam[width - 1]
        lam_pi = lam * np.pi
        small = lam_pi < 1e-8
        np.exp(np.multiply(beta - np.pi / 2, lam, out=grow), out=grow)
        np.expm1(np.multiply(beta, -2.0 * lam, out=fall), out=fall)
        np.multiply(grow, np.add(fall, 2.0, out=sums), out=sums)
        np.matmul(P_even, sums, out=out_even)
        np.multiply(grow, fall, out=sums)
        sums[:, small] = beta
        np.matmul(P_odd, sums, out=out_odd)
        scale_even = params.u12 / (1.0 + np.exp(-lam_pi))
        scale_odd = params.u12 * np.where(small, 2.0 / np.pi,
                                          1.0 / np.expm1(-np.where(small, 1.0, lam_pi)))
        np.multiply(out_even[:, :width], scale_even[:width], out=values[0::2, j:j + width])
        np.multiply(out_odd[:, :width], scale_odd[:width], out=values[1::2, j:j + width])
    return ModeTable(params=params, ells=np.arange(ell_max + 1), lams=lams,
                     values=values)


def _modes_bytes(rows: int, n_lam: int) -> int:
    """Bytes _modes allocates for rows degrees at n_lam lambdas: the table and
    its lambdas, the Legendre rows (three copies while they are built), the
    products of a slab with every row, and the slab's three (32, LAMBDA_SLAB)
    buffers and eight lambda vectors."""
    half = _GLX_POS.size
    return 8 * ((rows + 1) * n_lam + 3 * rows * half + rows * LAMBDA_SLAB
                + (3 * half + 8) * LAMBDA_SLAB)


def _column(params: EfimovParams, lam: float, ell_max: int) -> ModeTable:
    """The mode table at the single lambda lam: one padded slab with the
    max(ell_max, ELL_MAX) + 1 rows of the default table, cut to ell_max + 1, so
    every entry of the default table is its own column's."""
    if ell_max < 0:
        raise ModelDataError("ell must be nonnegative")
    if not lam >= 0:
        raise ModelDataError("lam must be nonnegative (modes are even in lambda)")
    rows = max(ell_max, ELL_MAX) + 1
    require_memory(_modes_bytes(rows, 1), "mode column")
    tbl = _modes(params, np.array([float(lam)]), rows - 1)
    return ModeTable(params=params, ells=tbl.ells[:ell_max + 1], lams=tbl.lams,
                     values=tbl.values[:ell_max + 1])


def legendre_mode(params: EfimovParams, ell: int, lam: float) -> float:
    """Degree-ell eigenvalue of the off-diagonal sphere-operator block: the
    (ell, lam) entry of the default mode table (of the table with ell_max =
    ell above ELL_MAX)."""
    return float(_column(params, lam, ell).values[ell, 0])


def mode_table(params: EfimovParams, ell_max: int = ELL_MAX,
               lam_max: float = LAMBDA_MAX, n_lam: int = N_LAMBDA) -> ModeTable:
    """Tabulate all modes on n_lam equispaced lambdas in [0, lam_max]; the
    memory check counts the table, its Legendre rows and the slab buffers."""
    if ell_max < 0 or not 0 < lam_max < np.inf or n_lam < 2:
        raise ModelDataError(f"mode table needs ell_max >= 0, finite lam_max > 0 and "
                             f"n_lam >= 2, got {ell_max}, {lam_max}, {n_lam}")
    require_memory(_modes_bytes(ell_max + 1, n_lam), "mode table")
    return _modes(params, np.linspace(0.0, lam_max, n_lam), ell_max)


def count_sphere_operator(params: EfimovParams, lam: float, mu: float,
                          ell_max: int = ELL_MAX) -> int:
    """n(mu, Shat(lambda)) = sum_l (2l+1) [ |shat_l(lambda)| > mu ].

    The two-channel block operator with zero diagonal and cross kernels of
    equal modulus has eigenvalues +/- |shat_l| with multiplicity 2l + 1.
    """
    if not mu > 0:
        raise ModelDataError("mu must be positive")
    return int(_column(params, lam, ell_max).counts(mu)[0])


def _table_for(params: EfimovParams, table: ModeTable | None) -> ModeTable:
    """The given table, which must belong to params, else mode_table(params)."""
    if table is None:
        return mode_table(params)
    if table.params != params:
        raise ModelDataError(f"mode table was built for {table.params}, not {params}")
    return table


def ucoef(params: EfimovParams, mu: float, table: ModeTable | None = None) -> float:
    """U(mu) = (4 pi)^{-1} int_R n(mu, Shat(lambda)) dlambda.

    The integrand is even and integer valued with exponentially decaying
    support; trapezoid over the lambdas [0, lam_max] of `table` (default
    mode_table(params)), doubled.
    """
    if not mu > 0:
        raise ModelDataError("mu must be positive")
    tbl = _table_for(params, table)
    return float(2.0 * np.trapezoid(tbl.counts(mu), tbl.lams) / (4 * np.pi))


def sobolev_1d_kernel(params: EfimovParams, ell: int, y: np.ndarray) -> np.ndarray:
    """Per-degree radial kernel s_l(y) = 2 pi int P_l(t) S(y, t) dt.

    S(y, t) = (2 pi)^{-2} u12 / (cosh(y + r12) + s12 t); Gauss-Legendre in t.
    """
    y = np.asarray(y, dtype=float)
    P = _legendre_rows(ell)[ell] * _GLW
    # cosh overflows beyond ~710; the kernel is ~1e-300 there, clip instead
    arg = np.minimum(np.abs(y + params.r12), 700.0)
    den = np.cosh(arg)[..., None] + params.s12 * _GLX
    return (params.u12 / (2 * np.pi)) * (1.0 / den) @ P


def _dense_count(vals: np.ndarray, nn: int, mu: float) -> int:
    """#{singular values of K > mu} from vals = h s_l at the lags nn-1 .. -(nn-1):
    the reversed rows of K form the symmetric Hankel matrix with entries
    vals[i + j], whose eigenvalue moduli are the singular values of K."""
    sv = np.abs(np.linalg.eigvalsh(hankel(vals[:nn], vals[nn - 1:])))
    return int(np.sum(sv > mu))


def _negative_pivots(col: np.ndarray, diag: float, floor: float) -> int | None:
    """#neg of the symmetric Toeplitz matrix with first column col and its
    diagonal replaced by diag, or None when a pivot comes within floor of zero.

    One Levinson-Durbin pass: the prediction errors E_0 = diag and
    E_k = E_{k-1} (1 - kappa_k^2) are the LDL^T pivots det T_{k+1} / det T_k,
    so by Sylvester's law of inertia the negative E_k number the negative
    eigenvalues.  Each E_k is checked before anything is divided by it.
    """
    n = col.size
    rev = col[::-1].copy()              # rev[n-k:n-1] = c_{k-1}, ..., c_1
    a = np.zeros(n)                     # predictor a_1 .. a_k in a[1:k+1]
    err = float(diag)
    if not abs(err) > floor:
        return None
    neg = int(err < 0)
    for k in range(1, n):
        kappa = -float(col[k] + a[1:k] @ rev[n - k:n - 1]) / err
        a[1:k] += kappa * a[k - 1:0:-1]
        a[k] = kappa
        err *= 1.0 - kappa * kappa
        if not abs(err) > floor:
            return None
        neg += err < 0
    return neg


def _degree0_psd_bound(params: EfimovParams, col: np.ndarray) -> float:
    """A bound on -lambda_min of the computed degree-0 block K_0 of S_r at
    r12 = 0 with first column col = h s_0(d h): PSD_RTOL sum_d |col_d| / (1 - |s12|).

    Exactly, col_d = h (u12 / 2 pi) sum_k w_k / (cosh(d h) + s12 t_k) with
    Gauss-Legendre weights w_k > 0 and |s12 t_k| < 1, and each 1/(cosh y + c),
    |c| < 1, is a positive-definite function: its Fourier transform
    2 pi sinh(lambda arccos c) / (sqrt(1 - c^2) sinh(pi lambda)) is positive
    (Bochner).  So the Toeplitz K_0 of its samples is positive semidefinite,
    for the computed nodes, weights and step alike.  The computed col_d differ
    by e_d, in units of eps = 2^-52:
      * the shift cosh(y) + s12 t_k >= 1 - |s12|: a few eps relative to
        cosh(y) + |s12|, so at most 4 eps (1 + |s12|) / (1 - |s12|) relative;
      * the 64-term dot product of positive terms and the two scalings:
        at most 67 eps relative;
      * the lag itself, off d h by at most eps (y + h), where
        |d/dy log(1/(cosh y + c))| <= 1 / sqrt(1 - c^2): eps (y + h) / (1 - |s12|)
        relative, and the col-weighted mean lag is below 1.2 (measured for
        s12 from -0.999 to 0.999);
      * the clip of cosh at 700: only lags beyond 700, where col_d < 1e-300.
    So sum_d |e_d| <= 80 eps sum_d |col_d| / (1 - |s12|), and by Gershgorin a
    symmetric Toeplitz perturbation has ||E||_2 <= 2 sum_d |e_d|: lambda_min of
    the computed K_0 is above -3.6e-14 sum_d |col_d| / (1 - |s12|), which
    PSD_RTOL covers 25 times over.  Measured lambda_min: +5.9e-13 at s12 = -0.5,
    r = 50, and +5.6e-17 at s12 = 0.
    """
    return PSD_RTOL * float(np.abs(col).sum()) / (1.0 - abs(params.s12))


def sobolev_finite(params: EfimovParams, r: float, mu: float,
                   table: ModeTable | None = None) -> int:
    """n(mu, S_r): total count of singular values of the finite operator above mu.

    Per degree l of the table (mode_table(params) by default) the block
    K_ij = h s_l(x_i - x_j) is taken on the nn = ceil(8 r) midpoints x_i of
    (0, r), step h.  Degrees whose symbol maximum sup_lambda |shat_l| stays
    below mu are skipped outright, since no singular value of K exceeds it.

    At r12 = 0 the kernel is even, so K is symmetric Toeplitz and its singular
    values are its eigenvalue moduli.  The count is then an inertia count,
    #{|eig K| > mu} = (nn - #neg(K - mu I)) + #neg(K + mu I), each #neg read off
    the Levinson-Durbin prediction errors of the first column h s_l(d h),
    d = 0..nn-1: O(nn^2) work and O(nn) memory.  The degree-0 block K_0 is
    positive semidefinite up to rounding (_degree0_psd_bound), so when mu
    exceeds that bound #neg(K_0 + mu I) = 0 and only K_0 - mu I is factored.
    Two cases take one dense eigvalsh instead: every degree at r12 != 0, and
    a degree where a pivot of a factored shift comes within PIVOT_RTOL of
    zero, relative to the diagonal's scale |h s_l(0)| + mu.  There, as
    x_{nn-1-i} = r - x_i, the reversed rows h s_l(r - x_i - x_j) form a
    symmetric Hankel matrix whose eigenvalue moduli are the singular values
    of K.
    """
    if not 0 < r < np.inf or not mu > 0:
        raise ModelDataError("r must be finite and positive, and mu positive")
    nn = int(np.ceil(NODES_PER_UNIT * r))
    # the dense path's nn x nn block; the bound also caps the O(nn^2) pivot work
    require_memory(8 * nn * nn, f"S_r block at r = {r:g}")
    tbl = _table_for(params, table)
    step = r / nn
    x = (np.arange(nn) + 0.5) * step
    lags = x - x[0]
    diffs = np.concatenate([x - x[-1], lags[1:]])           # all distinct x_i - x_j
    total = 0
    for ell, top in zip(tbl.ells.tolist(), tbl.mode_max):
        if top <= mu * (1.0 - 1e-9):
            continue
        if params.r12 == 0.0:
            col = step * sobolev_1d_kernel(params, ell, lags)
            floor = PIVOT_RTOL * (abs(col[0]) + mu)
            below = _negative_pivots(col, col[0] - mu, floor)
            if ell == 0 and mu > _degree0_psd_bound(params, col):
                above = 0       # K_0 + mu I is positive definite
            else:
                above = _negative_pivots(col, col[0] + mu, floor)
            if below is not None and above is not None:
                count = nn - below + above
            else:
                count = _dense_count(np.concatenate([col[:0:-1], col]), nn, mu)
        else:
            count = _dense_count(step * sobolev_1d_kernel(params, ell, diffs)[::-1], nn, mu)
        total += (2 * ell + 1) * count
    return total


def asymptotic_slope(report: CountReport) -> tuple[float, float]:
    """Least-squares slope of N(z) against |log(m - z)| over trusted rows.

    Returns (slope, rms residual); the natural comparison target is U(1).
    """
    mask = np.asarray(report.trusted, dtype=bool)
    if int(mask.sum()) < SLOPE_MIN_POINTS:
        raise InsufficientDataError(
            f"need at least {SLOPE_MIN_POINTS} trusted points, have {int(mask.sum())}")
    x = np.abs(np.log(report.m_minus_z[mask]))
    y = report.counts[mask].astype(float)
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    return float(coef[0]), float(np.sqrt(np.mean(resid ** 2)))
