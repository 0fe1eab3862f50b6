import dataclasses
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import checkout_env
from lattice3b import builtin_model, coupling_threshold, essential_spectrum

SCRIPTS = Path(__file__).parent.parent / "scripts"


def run(script, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=600,
                          env=checkout_env())


def test_threshold_scan_script():
    proc = run("run_threshold_scan.py", "--ns", "8,12,16")
    assert proc.returncode == 0, proc.stderr
    assert "mu0" in proc.stdout and "extrapolated" in proc.stdout


def test_dichotomy_script(tmp_path):
    out = tmp_path / "c.csv"
    proc = run("run_dichotomy.py", "--case", "eigenvalue", "--grid", "8",
               "--kmin", "1", "--kmax", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "m_minus_z" in out.read_text()


def test_efimov_table_script(tmp_path):
    out = tmp_path / "u.csv"
    proc = run("run_efimov_table.py", "--grid", "8", "--r", "25,50",
               "--curve-out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "u12 = 1.15" in proc.stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "mu,value"
    vals = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
    assert np.all(np.diff(vals) <= 1e-12)       # U nonincreasing in mu


def test_essential_report_serialization(tmp_path):
    spec = builtin_model(6, 0.0, 0.0)
    mu0 = coupling_threshold(spec, 1)
    rep = essential_spectrum(spec.with_params(mu1=2 * mu0, mu2=0.0))
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0] == "channel,node_index,branch_value"
    assert len(csv_text.splitlines()) == 1 + rep.branch_points(1).size
    payload = json.loads(rep.to_json())
    assert payload["band"][0] == pytest.approx(spec.m)
    assert payload["lower_edge"] == pytest.approx(rep.lower_edge)
    assert len(payload["rows"]) == rep.branch_points(1).size
    for row in payload["rows"]:
        assert row["branch_value"] < spec.m


def test_benchmark_trace_targets_exist(monkeypatch):
    # every function the benchmark wraps or calls, and the workspace method its
    # count pass calls, is where the benchmark looks it up and still takes the
    # arguments the benchmark passes
    monkeypatch.syspath_prepend(str(SCRIPTS.parent / "perfbench"))
    import workloads
    lib = workloads.Lib()
    for module, attr, _ in workloads.trace_targets(lib):
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    tb = lib.threebody
    spec, z, delta, hess, ws = "spec", 0.0, 1.0, "hess", "ws"
    inspect.signature(tb.hs_diagnostics).bind(spec, z, delta, hess, ws)
    inspect.signature(tb.count_eigenvalues_below).bind(spec, z, ws)
    inspect.signature(tb._BSWorkspace.determinants).bind(ws, z)    # ws.determinants(z)
    # the set-up loads and the threshold_efimov pass
    path, n, params, mu, r, table = "path", 16, "params", 1.0, 100.0, "table"
    inspect.signature(lib.modelio.load_model).bind(path, n)
    inspect.signature(lib.twobody.expansion_fit).bind(spec, 1)
    inspect.signature(lib.model.hessian_at_minimum).bind(spec)
    inspect.signature(lib.efimov.efimov_params).bind(hess)
    inspect.signature(lib.efimov.mode_table).bind(params)
    inspect.signature(lib.efimov.ucoef).bind(params, mu, table=table)
    inspect.signature(lib.efimov.sobolev_finite).bind(params, r, mu, table=table)
    inspect.signature(lib.reports.write_report).bind("report", path, "csv")
    assert "sqrt_slope" in {f.name for f in dataclasses.fields(lib.twobody.ExpansionFit)}
