"""Command-line front end.

Commands: threshold, count, essential, efimov, validate.  Exit codes:
0 success, 2 usage/config error, 3 model/hypothesis violation, 4 resource cap.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import efimov as efi
from . import threebody as tb
from . import twobody as twb
from .errors import (DegenerateModelError, HypothesisViolationError,
                     InsufficientDataError, InvalidResolutionError,
                     InvalidSpectralPointError, ModelDataError,
                     OutOfDomainError, ResourceCapError, ToolkitError)
from .model import (check_conditionally_negative_definite, evenness_deviation,
                    hessian_at_minimum)
from .modelio import load_model
from .reports import CountReport, CurveReport, write_report

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MODEL = 3
EXIT_RESOURCE = 4


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lattice3b",
                                description="Three-particle lattice model spectral analysis")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--model", required=True, help="model JSON file")
        sp.add_argument("--grid", type=int, default=None, help="override grid_n")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None, help="write the report here")

    sp = sub.add_parser("threshold", help="critical couplings and classification")
    common(sp)

    sp = sub.add_parser("count", help="eigenvalue-count sweep below threshold")
    common(sp)
    sp.add_argument("--zmin-exp", type=float, default=1.0,
                    help="smallest exponent k in z = m - 10^-k (farthest from threshold)")
    sp.add_argument("--zmax-exp", type=float, default=8.0,
                    help="largest exponent k in z = m - 10^-k (closest to threshold)")
    sp.add_argument("--zcount", type=int, default=None,
                    help="number of sweep points (default: integer k steps)")
    sp.add_argument("--delta", type=float, default=None, help="model-kernel cutoff")
    sp.add_argument("--no-hs", action="store_true", help="skip HS diagnostics columns")

    sp = sub.add_parser("essential", help="essential spectrum scan")
    common(sp)

    sp = sub.add_parser("efimov", help="Efimov constants, U(1), S_r table")
    common(sp)
    sp.add_argument("--lmax", type=int, default=efi.ELL_MAX)
    sp.add_argument("--lambda-max", type=float, default=efi.LAMBDA_MAX)
    sp.add_argument("--r", default="100,200,400",
                    help="comma-separated r values for the S_r table")
    sp.add_argument("--mu", type=float, default=1.0)
    sp.add_argument("--count-report", default=None,
                    help="CountReport file for the asymptotic-slope comparison")

    sp = sub.add_parser("validate", help="run the model property checks")
    common(sp)
    sp.add_argument("--seed", type=int, default=0, help="seed of the sampled checks")
    return p


def _z_sweep(args) -> np.ndarray:
    k_lo, k_hi = args.zmin_exp, args.zmax_exp
    if not (np.isfinite(k_lo) and np.isfinite(k_hi)):
        raise ModelDataError(f"z exponents must be finite, got {k_lo} and {k_hi}")
    if k_hi < k_lo:
        raise ModelDataError(f"empty z sweep: zmax-exp {k_hi} < zmin-exp {k_lo}")
    if args.zcount is not None:
        if args.zcount < 1:
            raise ModelDataError("zcount must be positive")
        ks = np.linspace(k_lo, k_hi, args.zcount)
    else:
        ks = np.arange(k_lo, k_hi + 1e-12)
    with np.errstate(over="ignore"):
        s_values = 10.0 ** (-ks)
    if not np.all(np.isfinite(s_values)):
        raise ModelDataError(f"z exponents must leave m - z = 10^-k finite, got zmin-exp {k_lo}")
    return s_values


def cmd_threshold(args) -> int:
    loaded = load_model(args.model, args.grid)
    spec = loaded.spec
    lines = []
    mu0s = []
    for alpha in (1, 2):
        fit = twb.expansion_fit(spec, alpha)
        cls = twb.classify_threshold(spec, alpha, mu0=fit.mu0)
        mu0s.append(fit.mu0)
        norms = twb.resonance_function_norm(spec, alpha)
        trend = "diverging" if norms[-1] > 1.5 * norms[0] else "bounded"
        lines.append(f"channel {alpha}: mu0 = {fit.mu0:.6g}  mu = {spec.mu(alpha):.6g}  "
                     f"class = {cls.value}")
        lines.append(f"  sqrt-slope = {fit.sqrt_slope:.6g} (residual {fit.residual:.2e})  "
                     f"norm trend = {trend} {['%.4g' % v for v in norms]}")
    print("\n".join(lines))
    if args.out:
        write_report(CurveReport(x_name="channel", x=np.array([1, 2]),
                                 values=np.array(mu0s),
                                 meta={"grid_n": spec.grid.n}),
                     args.out, args.format)
    return EXIT_OK


def cmd_count(args) -> int:
    loaded = load_model(args.model, args.grid)
    spec = loaded.spec
    s_values = _z_sweep(args)
    delta = loaded.delta if args.delta is None else args.delta
    report = tb.count_report(spec, s_values, delta=delta, with_hs=not args.no_hs)
    sys.stdout.write(report.to_csv())
    if args.out:
        write_report(report, args.out, args.format)
    return EXIT_OK


def cmd_essential(args) -> int:
    loaded = load_model(args.model, args.grid)
    rep = tb.essential_spectrum(loaded.spec)
    b1 = rep.branch_points(1)
    b2 = rep.branch_points(2)
    print(f"band = [{rep.band[0]:.12g}, {rep.band[1]:.12g}]")
    print(f"branch points: channel1 {b1.size}, channel2 {b2.size}")
    print(f"lower edge = {rep.lower_edge:.12g}")
    if args.out:
        write_report(rep, args.out, args.format)
    return EXIT_OK


def cmd_efimov(args) -> int:
    try:
        r_list = [float(x) for x in args.r.split(",") if x.strip()]
    except ValueError as exc:
        raise ModelDataError(f"bad --r list {args.r!r}") from exc
    if not r_list:
        raise ModelDataError("empty --r list")
    if not all(np.isfinite(v) and v > 0 for v in r_list + [args.mu]):
        raise ModelDataError(f"--r values and --mu must be finite and positive, "
                             f"got --r {args.r!r} --mu {args.mu}")
    rep = CountReport.from_file(args.count_report) if args.count_report else None
    loaded = load_model(args.model, args.grid)
    spec = loaded.spec
    hess = hessian_at_minimum(spec)
    params = efi.efimov_params(hess)
    table = efi.mode_table(params, args.lmax, args.lambda_max)
    u1 = efi.ucoef(params, args.mu, table=table)
    # every S_r row, and so its size cap, comes before the first line of output
    counts = [efi.sobolev_finite(params, r, args.mu, table=table) for r in r_list]
    ratios = [0.5 * nr / r for nr, r in zip(counts, r_list)]
    print(f"u12 = {params.u12:.6g}  s12 = {params.s12:.6g}  r12 = {params.r12:.6g}")
    print(f"U({args.mu:g}) = {u1:.6g}")
    print("r,n_mu_Sr,half_n_over_r")
    for r, nr, ratio in zip(r_list, counts, ratios):
        print(f"{r:g},{nr},{ratio:.6g}")
    if rep is not None:
        try:
            slope, resid = efi.asymptotic_slope(rep)
            rel = abs(slope - u1) / u1 if u1 > 0 else float("inf")
            print(f"asymptotic slope = {slope:.6g} (residual {resid:.3g}), "
                  f"U({args.mu:g}) = {u1:.6g}, relative gap = {rel:.3g}")
        except InsufficientDataError as exc:
            print(f"asymptotic slope: {exc}")
    if args.out:
        write_report(CurveReport(x_name="r", x=np.array(r_list),
                                 values=np.array(ratios),
                                 meta={"mu": args.mu, "U": u1,
                                       "u12": params.u12, "s12": params.s12,
                                       "r12": params.r12}),
                     args.out, args.format)
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.seed < 0:
        raise ModelDataError(f"--seed must be nonnegative, got {args.seed}")
    loaded = load_model(args.model, args.grid)
    spec = loaded.spec
    ws = tb._BSWorkspace(spec)      # refuses an oversized grid before the first line
    checks = []

    def check(name, fn):
        try:
            ok, detail = fn()
        except ResourceCapError:
            raise
        except ToolkitError as exc:
            ok, detail = False, str(exc)
        checks.append(ok)
        print(f"[{'pass' if ok else 'FAIL'}] {name}: {detail}")

    grid = spec.grid
    check("quadrature normalization",
          lambda: (abs(grid.weight * grid.size - (2 * np.pi) ** 3) < 1e-12 * (2 * np.pi) ** 3,
                   f"total weight {grid.weight * grid.size:.12g}"))
    check("grid negation closure",
          lambda: (np.allclose(grid.nodes[::-1], -grid.nodes, atol=1e-15),
                   "node set closed under q -> -q"))
    check("origin excluded",
          lambda: (float(np.min(np.linalg.norm(grid.nodes, axis=1))) > 1e-12,
                   "no node at 0"))

    def _evenness():
        err = evenness_deviation(spec, 2048, args.seed)
        return err < 1e-9, f"max |u(p,q) - u(-p,-q)| = {err:.2e}"
    check("pair evenness", _evenness)

    def _local_bounds():
        rng = np.random.default_rng(args.seed + 1)
        d = rng.normal(size=(400, 6))
        d /= np.linalg.norm(d, axis=1)[:, None]
        rad = rng.uniform(1e-3, 1.0, size=400) / np.sqrt(2.0)
        pq = d * rad[:, None]
        vals = spec.pair(pq[:, :3], pq[:, 3:]) - spec.m
        rho2 = np.sum(pq ** 2, axis=1)
        c1, c2 = float(np.min(vals / rho2)), float(np.max(vals / rho2))
        mask_out = np.sum(grid.nodes ** 2, axis=1) >= 1.0
        both_out = spec.pair(grid.nodes[mask_out], grid.nodes[mask_out]) - spec.m
        c3 = float(np.min(both_out)) if both_out.size else np.inf
        ok = c1 > 0 and np.isfinite(c2) and c3 > 0
        return ok, f"C1={c1:.3g} C2={c2:.3g} C3={c3:.3g} (delta=1)"
    check("local quadratic bounds", _local_bounds)

    def _hessian():
        h = hessian_at_minimum(spec)
        return True, (f"l1={h.l1:.6g} l2={h.l2:.6g} l={h.l:.6g} "
                      f"detU={h.detU:.6g} residual={h.residual:.2e}")
    check("hessian product form", _hessian)

    def _cnd():
        eps = spec.pair.dispersion
        if eps is None:
            return True, "skipped (custom pair energy)"
        rep = check_conditionally_negative_definite(eps, 200, args.seed)
        return rep.passed, f"worst form value {rep.worst:.3e}"
    check("conditional negative definiteness", _cnd)

    def _monotone():
        zs = np.sort(spec.m - np.geomspace(1e-3, 1.0, 8))
        lams = twb._lambda_line(spec, 1, np.zeros(3), zs)
        mu_half = 0.5 / lams[-1]
        vals = [1.0 - mu_half * lam for lam in lams]
        diffs = np.diff(vals)
        return bool(np.all(diffs < 0)), "Delta decreasing along the z-chain"
    check("determinant monotonicity", _monotone)

    def _lambda_max_at_origin():
        z = spec.m - 1e-12 * max(1.0, abs(spec.m))
        pairs = [(ws.lambdas(alpha, z).max(),  # flip-invariant: max on representatives = on grid
                  twb.lambda_integral(spec, alpha, np.zeros(3), spec.m)) for alpha in (1, 2)]
        return all(lam < lam0 for lam, lam0 in pairs), \
            "max_p Lambda(p,m)/Lambda(0,m) = " + ", ".join(
                f"{lam / lam0:.6f} (channel {alpha})"
                for alpha, (lam, lam0) in zip((1, 2), pairs))
    check("Lambda maximum at origin (grid)", _lambda_max_at_origin)

    if all(checks):
        print("all checks passed")
        return EXIT_OK
    print(f"{sum(not c for c in checks)} check(s) failed")
    return EXIT_MODEL


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        handler = {
            "threshold": cmd_threshold,
            "count": cmd_count,
            "essential": cmd_essential,
            "efimov": cmd_efimov,
            "validate": cmd_validate,
        }[args.command]
        return handler(args)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidSpectralPointError, HypothesisViolationError, DegenerateModelError) as exc:
        # a broken hypothesis, or couplings that put channel branches below the sweep
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (ModelDataError, InvalidResolutionError, OutOfDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceCapError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    raise SystemExit(main())
