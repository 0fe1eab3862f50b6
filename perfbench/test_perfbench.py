"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from stats import error_rate, quartile_spread, summarize  # noqa: E402

REF = gate.load_reference()


def test_summarize_reports_tail_only_with_ten_samples_beyond():
    assert summarize([3.0, 1.0, 2.0]) == {"n": 3, "p50": 2.0, "tail": None}
    assert summarize(range(20))["tail"] is None          # p75 has 5 beyond
    assert summarize(range(1, 41))["tail"] == (75.0, 30.0)
    s = summarize(range(1, 101))
    assert s["p50"] == 50.5 and s["tail"] == (90.0, 90.0)
    with pytest.raises(ValueError):
        summarize([])


def test_error_rate_base():
    assert error_rate(0, 18) == 0.0
    assert error_rate(3, 12) == 0.25
    with pytest.raises(ValueError):
        error_rate(0, 0)
    with pytest.raises(ValueError):
        error_rate(5, 4)


def test_quartile_spread():
    assert quartile_spread([10.0] * 4) == 0.0
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


def test_self_time_subtracts_nested_children():
    spans = [Span(0, None, "a.outer", ("pass", 0), 0.0, 10.0),
             Span(1, 0, "b.first", ("pass", 0), 1.0, 3.0),
             Span(2, 0, "b.second", ("pass", 0), 4.0, 6.0),
             Span(3, 2, "c.inner", ("pass", 0), 4.5, 5.0)]
    own = self_times(spans)
    assert own == {0: pytest.approx(6.0), 1: pytest.approx(2.0),
                   2: pytest.approx(1.5), 3: pytest.approx(0.5)}
    assert sum(own.values()) == pytest.approx(10.0)   # self times cover the root


def test_tracer_patches_nest_and_restore():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.inner
    tracer = Tracer()
    with tracer.patched([(mod, "outer", "m.outer"), (mod, "inner", "m.inner")]):
        assert mod.outer(1) == 4
    assert mod.inner is original
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["m.inner"].parent == by_name["m.outer"].id
    assert by_name["m.outer"].parent is None


def _reference_ops(name):
    ref = REF[name]
    if name == "hs_sweep":
        return [{"s": 0.0, "hs": h, "diff": d} for h, d in zip(ref["hs_norm"], ref["hs_diff"])]
    if name == "threshold_efimov":
        fits = [{"op": "fit", "slope": v} for v in ref["fit_slopes"]]
        radii = workloads.WORKLOADS[name]["radii"]
        return fits + [{"op": "sobolev", "r": r, "count": c}
                       for r, c in zip(radii, ref["sr_counts"])]
    return [{"s": 0.0, "count": c, "det_min": d}
            for c, d in zip(ref["counts"], ref["det_min"])]


def _extra(name):
    if name == "threshold_efimov":
        return {"u": REF[name]["u"], "slope_extrapolated": REF[name]["slope_extrapolated"]}
    return {"constant_counts": workloads.WORKLOADS[name].get("constant_counts", False)}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_passes_reference(name):
    kind = workloads.WORKLOADS[name]["kind"]
    for default_seed in (True, False):
        reasons = gate.check_pass(kind, _reference_ops(name), _extra(name), REF[name],
                                  default_seed)
        assert reasons == [None] * len(reasons)


def test_gate_trips_on_doctored_results():
    ops = _reference_ops("resonance_count")
    ops[3]["count"] += 1
    reasons = gate.check_pass("count", ops, {}, REF["resonance_count"], True)
    assert reasons[3] and reasons.count(None) == len(ops) - 2   # row 4 now decreases

    ops = _reference_ops("resonance_count")
    ops[0]["det_min"] *= 1 + 1e-6
    assert gate.check_pass("count", ops, {}, REF["resonance_count"], True)[0]

    ops = _reference_ops("resonance_count")        # other seed: theorems only
    ops[5]["count"] = 1
    reasons = gate.check_pass("count", ops, {}, REF["resonance_count"], False)
    assert reasons[5] == "N(z) decreased toward threshold"

    ops = _reference_ops("dense_small")
    ops[2]["count"] = 2
    reasons = gate.check_pass("count", ops, {"constant_counts": True},
                              REF["dense_small"], False)
    assert reasons[2] and reasons[3] and reasons[4] is None

    ops = _reference_ops("hs_sweep")
    ops[7]["hs"] = ops[6]["hs"]
    assert gate.check_pass("hs", ops, {}, REF["hs_sweep"], False)[7]

    ops = _reference_ops("threshold_efimov")
    ops[-1]["count"] += 2
    reasons = gate.check_pass("efimov", ops, _extra("threshold_efimov"),
                              REF["threshold_efimov"], True)
    assert reasons[-1] and reasons[:3] == [None] * 3

    extra = _extra("threshold_efimov")
    extra["u"] *= 1.5
    reasons = gate.check_pass("efimov", _reference_ops("threshold_efimov"), extra,
                              REF["threshold_efimov"], False)
    assert all(reasons[3:]) and reasons[:3] == [None] * 3

    ops = _reference_ops("resonance_count")
    ops[4] = {"error": "RuntimeError('boom')"}
    assert gate.check_pass("count", ops, {}, REF["resonance_count"], True)[4]


def test_same_outputs():
    a = _reference_ops("resonance_count")
    b = _reference_ops("resonance_count")
    b[2]["count"] += 1
    assert gate.same_outputs("count", a, b) == [i != 2 for i in range(len(a))]


def test_result_line_marks_failures_incorrect():
    child = {"attempted": 10, "failed": 1,
             "metrics": {"wall_s": 1.5, "row_s.p50": 0.1, "setup_s": 0.2, "peak_rss_mb": 99.0}}
    line = run.result_line(child, traced=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is False
    assert line["metrics"]["peak_rss_mb"] == {"value": 99.0, "unit": "MB"}
    child["failed"] = 0
    assert run.result_line(child, traced=False)["correct"] is True


def test_inputs_from_seed():
    base = workloads.make_inputs("resonance_count", workloads.DEFAULT_SEED)
    assert base["s"] == (10.0 ** -np.arange(9.0)).tolist()    # as the CLI sweep
    one = workloads.make_inputs("resonance_count", 7)
    assert one == workloads.make_inputs("resonance_count", 7)
    assert one["s"][:2] == base["s"][:2]                  # fixed transition rows
    for k, s in enumerate(one["s"][2:], start=2):
        assert 10.0 ** -(k + 1) < s <= 10.0 ** -k
    hs = workloads.make_inputs("hs_sweep", 3)["s"]
    assert all(a > b for a, b in zip(hs, hs[1:]))
    mu = workloads.make_inputs("threshold_efimov", 3)["mu"]
    assert 0.9 <= mu <= 1.1


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    reported = [m for m, _, _ in workloads.TIMED_CALLS] + \
        [m for m, _ in workloads.COUNTED_CALLS] + \
        [f"{l}.self_s" for l in workloads.SELF_TIME_LAYERS] + \
        ["threebody.workspace_bytes", "trace.overhead_s"]
    assert sorted(layer) == sorted(reported)
    assert all(run.per_layer_unit(name) == unit for name, unit in layer.items())


def test_incomplete_checkout_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dense_small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
