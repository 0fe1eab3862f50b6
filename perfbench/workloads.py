"""One benchmark workload, run in its own process by perfbench/run.py.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 \
        --threads T --out-dir DIR

Loads the model repeatedly (set-up), then runs timed passes of the workload,
closed loop, until the next pass would not end within --seconds; at least one
pass always runs.  With --trace 1 an untraced warm-up pass is followed by
traced and untraced passes in turn, so the tracing overhead is their
difference.  Every pass is gated (gate.py).  The last line of stdout is one
JSON object with the raw results.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# set-up runs at least SETUP_REPEATS times and for SETUP_SECONDS before the
# first pass; setup_s is the median repeat
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
DEFAULT_SEED = 0

# why each workload exists: see perfbench/README.md
WORKLOADS = {
    # rows k = 0, 1 cross the count's rise from 1 to 9, where ARPACK runs once
    # or twice depending on the count: they are not jittered, so every seed
    # does the same work
    "resonance_count": {"kind": "count", "model": "resonance_strong.json",
                        "grid": 14, "exponents": list(range(0, 9)), "fixed_rows": 2},
    "hs_sweep": {"kind": "hs", "model": "builtin_critical.json", "grid": 14,
                 "points": 16, "decades": (-4.0, -1.0)},
    "dense_small": {"kind": "count", "model": "eigenvalue_case.json", "grid": 10,
                    "exponents": list(range(4, 9)), "constant_counts": True},
    # its rows are the S_r table rows; r <= 200 keeps a pass near 8 s, so a
    # run holds three passes with one thread
    "threshold_efimov": {"kind": "efimov", "model": "builtin_critical.json",
                         "fit_grids": [32, 48, 64], "radii": [100.0, 150.0, 200.0],
                         "mu": 1.0},
}

# per-layer metrics: (metric, span name, phase it is taken from)
TIMED_CALLS = [
    ("modelio.load_model_s", "modelio.load_model", "setup"),
    ("twobody.coupling_threshold_s", "twobody.coupling_threshold", "setup"),
    ("model.pair_matrix_s", "model.pair_matrix", "pass"),
    ("model.hessian_s", "model.hessian_at_minimum", "pass"),
    ("threebody.count_s", "threebody.count_eigenvalues_below", "pass"),
    ("threebody.hs_s", "threebody.hs_diagnostics", "pass"),
    ("twobody.expansion_fit_s", "twobody.expansion_fit", "pass"),
    ("efimov.mode_table_s", "efimov.mode_table", "pass"),
    ("efimov.ucoef_s", "efimov.ucoef", "pass"),
    ("efimov.sobolev_finite_s", "efimov.sobolev_finite", "pass"),
]
COUNTED_CALLS = [
    ("threebody.count.rows", "threebody.count_eigenvalues_below"),
    ("threebody.hs.rows", "threebody.hs_diagnostics"),
    ("efimov.sobolev.degrees", "efimov.sobolev_1d_kernel"),
]
SELF_TIME_LAYERS = ("model", "twobody", "threebody", "efimov")


def make_inputs(name: str, seed: int) -> dict:
    """Workload inputs from the seed.  The default seed gives the integer
    exponents the CLI uses; any other seed jitters each point log-uniformly
    within its decade, except the first "fixed_rows" rows (HS sweep: within
    half its spacing; Efimov: the level mu within +-10%, where the same single
    degree stays active)."""
    import numpy as np
    cfg = WORKLOADS[name]
    rng = None if seed == DEFAULT_SEED else np.random.default_rng(seed)
    if cfg["kind"] == "count":
        k = np.asarray(cfg["exponents"], dtype=float)
        if rng is not None:
            fixed = cfg.get("fixed_rows", 0)
            k[fixed:] += rng.uniform(0.0, 1.0, k.size - fixed)
        return {"s": (10.0 ** -k).tolist()}
    if cfg["kind"] == "hs":
        lo, hi = cfg["decades"]
        e = np.linspace(lo, hi, cfg["points"])
        if rng is not None:
            half = 0.5 * (hi - lo) / (cfg["points"] - 1)
            e = e + rng.uniform(-half, half, e.size)
        return {"s": (10.0 ** e)[::-1].tolist()}       # shrinking m - z
    mu = cfg["mu"]
    if rng is not None:
        mu = float(np.exp(rng.uniform(np.log(0.9), np.log(1.1))))
    return {"mu": mu, "radii": list(cfg["radii"]), "fit_grids": list(cfg["fit_grids"])}


class Clock:
    """Sums the time of the calls it makes: the pass's wall time."""

    def __init__(self):
        self.wall = 0.0

    def timed(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        self.wall += dt
        return out, dt


def setup(lib, name: str) -> dict:
    """The workload's model loads: this is what setup_s times."""
    cfg = WORKLOADS[name]
    path = str(ROOT / "models" / cfg["model"])
    if cfg["kind"] == "efimov":
        return {"specs": [lib.modelio.load_model(path, n).spec for n in cfg["fit_grids"]]}
    loaded = lib.modelio.load_model(path, cfg["grid"])
    return {"spec": loaded.spec, "delta": loaded.delta}


def count_pass(lib, state, inputs, out_dir):
    """Pair matrix once, then one count per z with the shared workspace."""
    import numpy as np
    tb = lib.threebody
    spec = state["spec"]
    clock = Clock()
    ops, times = [], []
    ws, _ = clock.timed(tb._BSWorkspace, spec)
    for s in inputs["s"]:
        z = spec.m - s
        try:
            count, dt = clock.timed(tb.count_eigenvalues_below, spec, z, ws)
            d1, d2 = ws.determinants(z)        # untimed: det_min for the gate
        except Exception as exc:       # a failed row is counted, not fatal
            traceback.print_exc()
            ops.append({"error": repr(exc)})
            continue
        ops.append({"s": s, "count": int(count),
                    "det_min": float(min(d1.min(), d2.min()))})
        times.append(dt)
    good = [op for op in ops if "error" not in op]
    s_arr = np.array([op["s"] for op in good])
    report = lib.reports.CountReport(
        m_minus_z=s_arr, counts=np.array([op["count"] for op in good], dtype=int),
        det_min=np.array([op["det_min"] for op in good]),
        hs_norm=np.full(len(good), np.nan), hs_diff=np.full(len(good), np.nan),
        trusted=s_arr >= tb.trust_floor(spec.grid.n),
        meta={"grid_n": spec.grid.n, "mu1": spec.mu1, "mu2": spec.mu2})
    clock.timed(lib.reports.write_report, report, str(out_dir / "counts.csv"), "csv")
    return clock.wall, times, ops, {}


def hs_pass(lib, state, inputs, out_dir):
    """Hessian and pair matrix once, then hs_diagnostics per z (criterion 7)."""
    import numpy as np
    tb = lib.threebody
    spec = state["spec"]
    clock = Clock()
    ops, times = [], []
    hess, _ = clock.timed(lib.model.hessian_at_minimum, spec)
    ws, _ = clock.timed(tb._BSWorkspace, spec)
    for s in inputs["s"]:
        try:
            (hs, diff), dt = clock.timed(tb.hs_diagnostics, spec, spec.m - s,
                                         state["delta"], hess, ws)
        except Exception as exc:       # a failed row is counted, not fatal
            traceback.print_exc()
            ops.append({"error": repr(exc)})
            continue
        ops.append({"s": s, "hs": float(hs), "diff": float(diff)})
        times.append(dt)
    good = [op for op in ops if "error" not in op]
    s_arr = np.array([op["s"] for op in good])
    for key in ("hs", "diff"):
        report = lib.reports.CurveReport(
            x_name="m_minus_z", x=s_arr, values=np.array([op[key] for op in good]),
            meta={"grid_n": spec.grid.n, "delta": state["delta"]})
        clock.timed(lib.reports.write_report, report, str(out_dir / f"hs_{key}.csv"), "csv")
    return clock.wall, times, ops, {}


def efimov_pass(lib, state, inputs, out_dir):
    """Sqrt-slope fits with Richardson extrapolation (criterion 3), then
    U(mu) and the S_r table rows n(mu, S_r) on one mode table (criterion 5)."""
    import numpy as np
    ef = lib.efimov
    clock = Clock()
    ops, times = [], []
    slopes = []
    for n, spec in zip(inputs["fit_grids"], state["specs"]):
        try:
            fit, dt = clock.timed(lib.twobody.expansion_fit, spec, 1)
        except Exception as exc:       # a failed fit is counted, not fatal
            traceback.print_exc()
            ops.append({"op": "fit", "error": repr(exc)})
            continue
        ops.append({"op": "fit", "n": n, "slope": float(fit.sqrt_slope)})
        slopes.append(fit.sqrt_slope)
    extra = {}
    if len(slopes) == len(inputs["fit_grids"]):
        ns = np.asarray(inputs["fit_grids"], dtype=float)
        A = np.stack([np.ones(ns.size), 1.0 / ns], axis=1)
        extra["slope_extrapolated"] = float(np.linalg.lstsq(A, np.asarray(slopes),
                                                            rcond=None)[0][0])
    mu = inputs["mu"]
    hess, _ = clock.timed(lib.model.hessian_at_minimum, state["specs"][0])
    params, _ = clock.timed(ef.efimov_params, hess)
    table, _ = clock.timed(ef.mode_table, params)
    u, _ = clock.timed(ef.ucoef, params, mu, table=table)
    extra["u"] = float(u)
    counts = []
    for r in inputs["radii"]:
        try:
            count, dt = clock.timed(ef.sobolev_finite, params, r, mu, table=table)
        except Exception as exc:       # a failed evaluation is counted, not fatal
            traceback.print_exc()
            ops.append({"op": "sobolev", "error": repr(exc)})
            continue
        ops.append({"op": "sobolev", "r": r, "count": int(count)})
        counts.append(count)
        times.append(dt)
    report = lib.reports.CurveReport(
        x_name="r", x=np.asarray(inputs["radii"][:len(counts)]),
        values=np.asarray(counts), meta={"mu": mu, "U": float(u)})
    clock.timed(lib.reports.write_report, report, str(out_dir / "sobolev.csv"), "csv")
    return clock.wall, times, ops, extra


PASSES = {"count": count_pass, "hs": hs_pass, "efimov": efimov_pass}


def operations(name: str, inputs: dict) -> int:
    if WORKLOADS[name]["kind"] == "efimov":
        return len(inputs["fit_grids"]) + len(inputs["radii"])
    return len(inputs["s"])


def trace_targets(lib):
    """(module, attribute, span name) for every public call a pass reaches.

    Each function is patched where its caller looks it up, so spans nest:
    load_model -> coupling_threshold, workspace -> pair_matrix,
    expansion_fit -> coupling_threshold, sobolev_finite -> sobolev_1d_kernel.
    """
    return [
        (lib.modelio, "load_model", "modelio.load_model"),
        (lib.modelio, "coupling_threshold", "twobody.coupling_threshold"),
        (lib.twobody, "coupling_threshold", "twobody.coupling_threshold"),
        (lib.twobody, "expansion_fit", "twobody.expansion_fit"),
        (lib.threebody, "pair_matrix", "model.pair_matrix"),
        (lib.threebody, "_BSWorkspace", "threebody.workspace"),
        (lib.threebody, "count_eigenvalues_below", "threebody.count_eigenvalues_below"),
        (lib.threebody, "hs_diagnostics", "threebody.hs_diagnostics"),
        (lib.model, "hessian_at_minimum", "model.hessian_at_minimum"),
        (lib.efimov, "efimov_params", "efimov.efimov_params"),
        (lib.efimov, "mode_table", "efimov.mode_table"),
        (lib.efimov, "ucoef", "efimov.ucoef"),
        (lib.efimov, "sobolev_finite", "efimov.sobolev_finite"),
        (lib.efimov, "sobolev_1d_kernel", "efimov.sobolev_1d_kernel"),
        (lib.reports, "write_report", "reports.write_report"),
    ]


def layer_metrics(spans, traced_walls, untraced_walls, workspace_bytes):
    """Per-layer metrics from the spans, medians over the rounds of a phase,
    and the breakdown that shows the layer self times add up to the wall."""
    from spans import layer_of, self_times
    rounds = {"setup": sorted({s.round[1] for s in spans if s.round[0] == "setup"}),
              "pass": sorted({s.round[1] for s in spans if s.round[0] == "pass"})}

    def per_round(phase, pick):
        return statistics.median(
            sum(pick(s) for s in spans if s.round == (phase, r)) for r in rounds[phase])

    out = {}
    for metric, name, phase in TIMED_CALLS:
        out[metric] = per_round(phase, lambda s, n=name: s.duration if s.name == n else 0.0)
    for metric, name in COUNTED_CALLS:
        out[metric] = per_round("pass", lambda s, n=name: 1 if s.name == n else 0)
    own = self_times(spans)
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = per_round(
            "pass", lambda s, l=layer: own[s.id] if layer_of(s.name) == l else 0.0)
    out["threebody.workspace_bytes"] = workspace_bytes
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    pass_layers = sorted({layer_of(s.name) for s in spans if s.round[0] == "pass"})
    return out, {"traced_wall_s": statistics.median(traced_walls),
                 "self_time_total_s": per_round("pass", lambda s: own[s.id]),
                 "layer_self_s": {l: per_round("pass", lambda s, l=l: own[s.id]
                                               if layer_of(s.name) == l else 0.0)
                                  for l in pass_layers}}


def provenance(threads: int, seed: int) -> dict:
    import numpy
    import scipy
    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (KeyError, TypeError, ValueError):
        pass
    rev = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        rev = ref
    return {"threads": threads, "nproc": os.cpu_count(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "python": platform.python_version(),
            "git_revision": rev, "seed": seed}


class Lib:
    """The package modules, imported from the checkout's src/."""

    def __init__(self):
        sys.path.insert(0, str(ROOT / "src"))
        import lattice3b
        if Path(lattice3b.__file__).resolve().parent != ROOT / "src" / "lattice3b":
            raise ImportError(f"lattice3b imported from {lattice3b.__file__}, "
                              f"not from {ROOT / 'src'}")
        from lattice3b import efimov, model, modelio, reports, threebody, twobody
        self.efimov, self.model, self.modelio = efimov, model, modelio
        self.reports, self.threebody, self.twobody = reports, threebody, twobody


def run(name: str, seed: int, seconds: float, traced: bool, threads: int,
        out_dir: Path) -> dict:
    import gate
    from spans import Tracer
    lib = Lib()
    cfg = WORKLOADS[name]
    reference = gate.load_reference()[name]
    inputs = make_inputs(name, seed)
    tracer = Tracer()

    setup_times = []
    start = time.perf_counter()
    while len(setup_times) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        tracer.round = ("setup", len(setup_times))
        t0 = time.perf_counter()
        if traced:
            with tracer.patched(trace_targets(lib)):
                state = setup(lib, name)
        else:
            state = setup(lib, name)
        setup_times.append(time.perf_counter() - t0)

    run_pass = PASSES[cfg["kind"]]
    n_ops = operations(name, inputs)
    deadline = time.perf_counter() + seconds
    passes = []          # (traced?, wall, row times, ops, extra)
    failures = []
    attempted = failed = 0
    while True:
        this_traced = traced and len(passes) % 2 == 1
        started = time.perf_counter()
        try:
            if this_traced:
                tracer.round = ("pass", len(passes))
                with tracer.patched(trace_targets(lib)):
                    result = run_pass(lib, state, inputs, out_dir)
            else:
                result = run_pass(lib, state, inputs, out_dir)
        except Exception as exc:       # the whole pass failed: every op fails
            traceback.print_exc()
            attempted += n_ops
            failed += n_ops
            failures.append(f"pass {len(passes)}: {exc!r}")
            break
        wall, times, ops, extra = result
        extra["constant_counts"] = cfg.get("constant_counts", False)
        reasons = gate.check_pass(cfg["kind"], ops, extra, reference,
                                  seed == DEFAULT_SEED)
        if passes:
            same = gate.same_outputs(cfg["kind"], passes[0][3], ops)
            reasons = [r if r is not None or ok else "outputs differ between passes"
                       for r, ok in zip(reasons, same)]
        attempted += len(ops)
        failed += sum(r is not None for r in reasons)
        failures += [f"pass {len(passes)} op {i}: {r}" for i, r in enumerate(reasons)
                     if r is not None]
        passes.append((this_traced, wall, times, ops, extra))
        # traced runs: pass 0 warms up, then traced and untraced passes alternate
        need_both = traced and len(passes) < 3
        now = time.perf_counter()
        if not need_both and now + (now - started) > deadline:
            break

    untraced = [p for p in passes if not p[0]]
    traced_walls = [p[1] for p in passes if p[0]]
    out = {"workload": name, "seed": seed, "trace": int(traced),
           "attempted": attempted, "failed": failed, "failures": failures[:20],
           "provenance": provenance(threads, seed), "inputs": inputs,
           "outputs": [p[3] for p in passes[:1]], "passes": len(passes),
           "pass_walls": [[int(p[0]), p[1]] for p in passes],
           "setup_times": setup_times}
    if not untraced or (traced and (not traced_walls or len(untraced) < 2)):
        out["metrics"] = {}
        return out
    rows = summarize_rows([t for p in untraced for t in p[2]])
    workspace_bytes = 0
    if cfg["kind"] != "efimov":
        workspace_bytes = 2 * state["spec"].grid.size ** 2 * 8
    if traced:
        metrics, info = layer_metrics(tracer.spans, traced_walls,
                                      [p[1] for p in untraced[1:]], workspace_bytes)
        out["metrics"] = metrics
        out["trace_info"] = info
        out["spans"] = [[s.id, s.parent, s.name, list(s.round), s.start, s.end]
                        for s in tracer.spans]
    else:
        out["metrics"] = {
            "wall_s": min(p[1] for p in untraced),
            # each row's fastest time over the passes, median over the rows
            "row_s.p50": statistics.median(min(t) for t in zip(*(p[2] for p in untraced))),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    out["rows"] = rows
    out["workspace_bytes"] = workspace_bytes
    return out


def summarize_rows(row_times):
    from stats import summarize
    return summarize(row_times) if row_times else {"n": 0, "p50": float("nan"), "tail": None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.threads, out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
