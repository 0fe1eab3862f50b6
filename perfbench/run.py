"""Benchmark entry point: one workload in a fresh child process, gated, summarized.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints every metric by name with its unit,
then, as the last line, one JSON object {correct, attempted, failed, metrics}:
the end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
Exits 1 when any operation failed its gate, 2 when the checkout is incomplete
and 3 when the workload process did not finish.  Full results, spans included,
go to .perfbench_out/.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from stats import error_rate
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
# one BLAS thread: on a shared 2-vCPU host one count row, alternated between 1
# and 2 threads in one process, had a quartile spread of 10% with 1 thread
# and 20% with 2 (40 rows each)
DEFAULT_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "row_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def missing_inputs() -> list[str]:
    needed = [ROOT / "src" / "lattice3b" / "__init__.py", ROOT / "models",
              HERE / "reference.json", HERE / "workloads.py"]
    return [str(p) for p in needed if not p.exists()]


def result_line(child: dict, traced: bool) -> dict:
    metrics = {}
    for name, value in child["metrics"].items():
        unit = per_layer_unit(name) if traced else END_TO_END_UNITS[name]
        metrics[name] = {"value": value, "unit": unit}
    failed = int(child["failed"])
    return {"correct": failed == 0 and bool(metrics), "attempted": int(child["attempted"]),
            "failed": failed, "metrics": metrics}


def describe(child: dict, line: dict) -> list[str]:
    """Human-readable lines printed before the result line."""
    out = [f"workload {child['workload']}  seed {child['seed']}  trace {child['trace']}  "
           f"passes {child['passes']}  set-ups {len(child['setup_times'])}",
           "provenance " + json.dumps(child["provenance"], sort_keys=True)]
    for name, m in line["metrics"].items():
        out.append(f"{name} = {m['value']:.6g} {m['unit']}")
    rows = child.get("rows", {})
    if rows.get("n"):
        tail = rows["tail"]
        tail_txt = f", p{tail[0]:g} = {tail[1]:.6g} s" if tail else \
            " (too few samples for a tail percentile)"
        out.append(f"row samples: p50 = {rows['p50']:.6g} s{tail_txt}, over {rows['n']} "
                   f"rows of all untraced passes (z-rows or S_r table rows)")
    if child["attempted"]:
        out.append(f"error_rate = {error_rate(child['failed'], child['attempted']):.6g} "
                   f"({child['failed']} failed of {child['attempted']} operations)")
    if not child["trace"] and child.get("workspace_bytes"):
        out.append(f"threebody.workspace_bytes (computed, 2 N^2 8) = "
                   f"{child['workspace_bytes'] / 2**20:.1f} MB next to measured "
                   f"peak_rss_mb = {child['metrics']['peak_rss_mb']:.1f} MB")
    info = child.get("trace_info")
    if info:
        for layer, t in info["layer_self_s"].items():
            out.append(f"self time {layer} = {t:.6g} s")
        out.append(f"self times sum to {info['self_time_total_s']:.6g} s of traced "
                   f"wall {info['traced_wall_s']:.6g} s")
    out += [f"FAILED {f}" for f in child["failures"]]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=DEFAULT_THREADS,
                    help=f"BLAS/OpenMP threads (default: {DEFAULT_THREADS})")
    args = ap.parse_args(argv)

    missing = missing_inputs()
    if missing:
        print(f"perfbench: not a complete checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # on SIGTERM, leave through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = dict(os.environ)
    env.update({var: str(args.threads) for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--threads", str(args.threads),
           "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload process exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: workload process exited with {proc.returncode}", file=sys.stderr)
        return 3
    child = json.loads(lines[-1])
    (out_dir / "result.json").write_text(json.dumps(child, indent=1) + "\n")

    line = result_line(child, bool(args.trace))
    for text in describe(child, line):
        print(text)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
