#!/usr/bin/env python3
"""Efimov coefficient experiment: U(mu) curve and the S_r convergence table."""
import argparse

import numpy as np

from lattice3b import (builtin_model, efimov_params, hessian_at_minimum,
                       mode_table, sobolev_finite, ucoef)
from lattice3b.reports import CurveReport, write_report


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cross-weight", type=float, default=1.0)
    ap.add_argument("--grid", type=int, default=16)
    ap.add_argument("--mu", type=float, default=1.0)
    ap.add_argument("--r", default="100,200,400,800")
    ap.add_argument("--curve-out", default=None, help="write the U(mu) curve here")
    args = ap.parse_args()

    spec = builtin_model(args.grid, 0.0, 0.0, cross_weight=args.cross_weight)
    params = efimov_params(hessian_at_minimum(spec))
    tbl = mode_table(params)
    print(f"u12 = {params.u12:.6f}  s12 = {params.s12:.6f}  r12 = {params.r12:.6f}")
    u_target = ucoef(params, args.mu, table=tbl)
    print(f"U({args.mu:g}) = {u_target:.6f}")

    print("r, n(mu, S_r), (1/2) r^-1 n, rel gap")
    for r in (float(x) for x in args.r.split(",")):
        nr = sobolev_finite(params, r, args.mu, table=tbl)
        half = 0.5 * nr / r
        gap = abs(half - u_target) / u_target if u_target > 0 else float("nan")
        print(f"{r:g}, {nr}, {half:.6f}, {gap:.2%}")

    if args.curve_out:
        mus = np.geomspace(0.2, 1.5 * tbl.mode_max.max(), 40)
        curve = np.array([ucoef(params, m, table=tbl) for m in mus])
        write_report(CurveReport(x_name="mu", x=mus, values=curve,
                                 meta={"u12": params.u12, "s12": params.s12}),
                     args.curve_out, "csv")
        print(f"wrote U(mu) curve to {args.curve_out}")


if __name__ == "__main__":
    main()
