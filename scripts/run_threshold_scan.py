#!/usr/bin/env python3
"""Threshold analysis across grid resolutions for the cosine reference model.

Prints the critical coupling, the classification of both channels and the
fitted sqrt coefficient against the closed-form target, per resolution and
Richardson-extrapolated.
"""
import argparse

import numpy as np

from lattice3b import (builtin_model, classify_threshold, expansion_fit,
                       hessian_at_minimum, sin_axis_form_factor)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ns", default="32,48,64", help="comma-separated grid sizes")
    ap.add_argument("--odd-channel", action="store_true",
                    help="use phi1 = sin q1 (threshold eigenvalue case)")
    args = ap.parse_args()
    ns = tuple(int(x) for x in args.ns.split(","))

    phi1 = sin_axis_form_factor(1, 0) if args.odd_channel else None

    specs = [builtin_model(n, 0.0, 0.0, phi1=phi1) for n in ns]
    mu0s, slopes = [], []
    for n, spec in zip(ns, specs):
        fit = expansion_fit(spec, 1)
        mu0s.append(fit.mu0)
        slopes.append(fit.sqrt_slope)
        cls = classify_threshold(spec, 1, mu=fit.mu0, mu0=fit.mu0)
        print(f"n={n:3d}: mu0={fit.mu0:.7f}  class={cls.value}  "
              f"sqrt-slope={fit.sqrt_slope:.5f}  residual={fit.residual:.2e}")

    # Richardson extrapolation: least-squares intercept of a + b/n
    A = np.stack([np.ones(len(ns)), 1.0 / np.asarray(ns, float)], axis=1)
    mu0_ext = float(np.linalg.lstsq(A, np.asarray(mu0s), rcond=None)[0][0])
    slope = float(np.linalg.lstsq(A, np.asarray(slopes), rcond=None)[0][0])
    h = hessian_at_minimum(specs[0])
    phi0 = 0.0 if args.odd_channel else 1.0
    target = 4 * np.sqrt(2) * np.pi ** 2 * mu0_ext * phi0 ** 2 \
        / (h.l2 ** 1.5 * np.sqrt(h.detU))
    print(f"extrapolated: mu0 = {mu0_ext:.7f}, sqrt-slope = {slope:.5f}, "
          f"closed-form target = {target:.5f}")


if __name__ == "__main__":
    main()
