import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import checkout_env, traced_peak
from lattice3b import ModelDataError, builtin_epsilon, build_grid, threebody
from lattice3b.cli import main
from lattice3b.modelio import load_dispersion_csv, load_model
from lattice3b.reports import CountReport


def write_model(path, **overrides):
    cfg = {
        "grid_n": 8,
        "dispersion": {"kind": "builtin"},
        "phi1": {"kind": "const", "value": 1.0},
        "phi2": {"kind": "const", "value": 1.0},
        "mu1": "critical",
        "mu2": "critical",
        "delta": 1.0,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return str(path)


def test_load_model_critical(tmp_path):
    loaded = load_model(write_model(tmp_path / "m.json"))
    spec = loaded.spec
    assert loaded.critical == (True, True)
    assert spec.mu1 > 0 and spec.mu1 == pytest.approx(spec.mu2)
    assert spec.grid.n == 8
    assert loaded.delta == 1.0


def test_load_model_numeric_mu_and_override(tmp_path):
    loaded = load_model(write_model(tmp_path / "m.json", mu1=0.01, mu2=0.0),
                        grid_override=4)
    assert loaded.spec.grid.n == 4
    assert loaded.spec.mu1 == 0.01
    assert loaded.critical == (False, False)


def test_load_model_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ModelDataError):
        load_model(str(p))


def test_load_model_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_model(str(tmp_path / "nope.json"))


def test_dispersion_csv_round_trip(tmp_path):
    grid = build_grid(4)
    vals = builtin_epsilon(grid.nodes)
    rows = ["q1,q2,q3,value"]
    order = np.random.default_rng(0).permutation(grid.size)
    for i in order:
        q = grid.nodes[i]
        rows.append(f"{float(q[0])!r},{float(q[1])!r},{float(q[2])!r},{float(vals[i])!r}")
    p = tmp_path / "eps.csv"
    p.write_text("\n".join(rows))
    disp = load_dispersion_csv(str(p), 4)
    assert np.allclose(disp(grid.nodes), vals, atol=1e-12)


def test_dispersion_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c,d\n1,2,3,4\n")
    with pytest.raises(ModelDataError):
        load_dispersion_csv(str(p), 4)
    p.write_text("q1,q2,q3,value\n0.1,0.2,0.3,1.0\n")
    with pytest.raises(ModelDataError):
        load_dispersion_csv(str(p), 4)


def test_tabulated_model_end_to_end(tmp_path):
    grid = build_grid(16)
    vals = builtin_epsilon(grid.nodes)
    lines = ["q1,q2,q3,value"] + [
        f"{float(q[0])!r},{float(q[1])!r},{float(q[2])!r},{float(v)!r}" for q, v in zip(grid.nodes, vals)]
    (tmp_path / "eps.csv").write_text("\n".join(lines))
    model = write_model(tmp_path / "m.json", grid_n=16, mu1=0.014, mu2=0.014,
                        dispersion={"kind": "tabulated", "csv": "eps.csv"})
    loaded = load_model(model)
    # away from threshold the channel integral matches the analytic model to
    # interpolation accuracy (the off-node bias of the table is O(h^2))
    from lattice3b import DegenerateModelError, coupling_threshold, lambda_integral
    ref = load_model(write_model(tmp_path / "ref.json", grid_n=16,
                                 mu1=0.014, mu2=0.014))
    got = lambda_integral(loaded.spec, 1, np.zeros(3), -2.0)
    want = lambda_integral(ref.spec, 1, np.zeros(3), -2.0)
    assert got == pytest.approx(want, rel=5e-2)
    # the interpolated minimum sits on nodes: z = m analysis refuses cleanly
    with pytest.raises(DegenerateModelError):
        coupling_threshold(loaded.spec, 1)
    # counting below threshold works
    assert main(["count", "--model", model, "--zmin-exp", "0", "--zmax-exp", "1",
                 "--no-hs"]) == 0
    # threshold analysis at z = m exits with the model-error code
    assert main(["threshold", "--model", model]) == 3


def test_cli_threshold_classification(tmp_path, capsys):
    model = write_model(tmp_path / "m.json")
    assert main(["threshold", "--model", model]) == 0
    out = capsys.readouterr().out
    assert out.count("class = Resonance") == 2
    model_sin = write_model(tmp_path / "s.json", phi1={"kind": "sin_axis", "axis": 1})
    assert main(["threshold", "--model", model_sin]) == 0
    out = capsys.readouterr().out
    assert "class = ThresholdEigenvalue" in out
    assert "class = Resonance" in out
    model_half = write_model(tmp_path / "h.json", mu1=0.008, mu2=0.008)
    assert main(["threshold", "--model", model_half]) == 0
    out = capsys.readouterr().out
    assert out.count("class = Regular") == 2


def test_cli_threshold_builds_each_channel_line_once(tmp_path, monkeypatch, capsys):
    # per channel: the fit's line, which gives the printed and classified mu0;
    # load_model's critical couplings add one each
    from lattice3b import cli
    from lattice3b.model import ModelSpec
    grids, loaded = [], []
    values, load = ModelSpec.channel_values, cli.load_model

    def count_values(self, alpha, p):
        grids.append(self.grid)
        return values(self, alpha, p)

    def keep_loaded(*args):
        loaded.append(load(*args))
        return loaded[-1]

    monkeypatch.setattr(ModelSpec, "channel_values", count_values)
    monkeypatch.setattr(cli, "load_model", keep_loaded)
    model = str(Path(__file__).parent.parent / "models" / "builtin_critical.json")
    assert main(["threshold", "--model", model, "--grid", "16"]) == 0
    assert "class = Resonance" in capsys.readouterr().out
    own = loaded[0].spec.grid
    assert own.n == 16
    assert sum(g is own for g in grids) == 4


@pytest.mark.parametrize("grid", [None, 10, 14, 32, 48, 64])
@pytest.mark.parametrize("name", ["builtin_critical", "eigenvalue_case",
                                  "resonance_strong"])
def test_load_model_runs_no_nelder_mead(monkeypatch, name, grid):
    # m and M of the builtin band are closed form, and the critical couplings
    # read Lambda at z = m, which no channel bottom lies below
    from lattice3b import model, twobody

    def no_minimize(*args, **kwargs):
        raise AssertionError("Nelder-Mead called")

    monkeypatch.setattr(model, "minimize", no_minimize)
    monkeypatch.setattr(twobody, "minimize", no_minimize)
    path = Path(__file__).parent.parent / "models" / f"{name}.json"
    spec = load_model(str(path), grid).spec
    assert spec.m == 0.0 and spec.mu1 > 0 and spec.mu2 > 0


@pytest.mark.parametrize("grid", [8, 14, 32, 64])
@pytest.mark.parametrize("path", sorted((Path(__file__).parent.parent / "models")
                                        .glob("*.json")), ids=lambda p: p.stem)
def test_channel_values_equal_generic_evaluator(path, grid):
    # the builtin sum form takes per-axis cosines; the bits must not change
    spec = load_model(str(path), grid).spec
    t = spec.grid.nodes
    for p in (np.zeros(3), np.random.default_rng(grid).uniform(-np.pi, np.pi, 3)):
        pb = np.broadcast_to(p, t.shape)
        assert np.array_equal(spec.channel_values(1, p), spec.pair(t, pb))
        assert np.array_equal(spec.channel_values(2, p), spec.pair(pb, t))


BAD_NUMBERS = [
    {"grid_n": 8.7}, {"grid_n": "8"}, {"grid_n": [8]}, {"grid_n": True},
    {"delta": "1"}, {"delta": [1.0]}, {"delta": float("nan")},
    {"pair_energy": {"form": "sum", "cross_weight": "2"}},
    {"pair_energy": {"form": "sum", "cross_weight": [2.0]}},
    {"dispersion": {"kind": "builtin", "axis_weights": 1.0}},
    {"dispersion": {"kind": "builtin", "axis_weights": [1.0, "1", 1.0]}},
    {"mu1": "0.01"}, {"mu1": [0.01]}, {"mu1": float("nan")}, {"mu1": float("inf")},
    {"mu1": -1.0},
    {"phi1": {"kind": "sin_axis", "axis": "1"}},
    {"phi1": {"kind": "cos_axis", "axis": 1.5}},
    {"phi1": {"kind": "const", "value": "1"}},
    {"phi1": {"kind": "const", "value": [1.0]}},
]


@pytest.mark.parametrize("command,overrides", [
    *(("validate", o) for o in BAD_NUMBERS),
    ("threshold", {"mu1": float("nan")}), ("count", {"mu1": float("nan")}),
], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_cli_bad_numbers_in_model_file(tmp_path, capsys, command, overrides):
    model = write_model(tmp_path / "m.json", **{"mu1": 0.01, "mu2": 0.01, **overrides})
    assert main([command, "--model", model]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("body", [
    {"grid_n": 8, "phi1": 5}, {"grid_n": 8, "dispersion": "builtin"}, [1, 2],
    {"grid_n": 8, "pair_energy": []},
    {"grid_n": 8, "dispersion": {"kind": "tabulated", "csv": 5}},
], ids=json.dumps)
def test_cli_model_sections_must_be_objects(tmp_path, capsys, body):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(body))
    assert main(["validate", "--model", str(model), "--grid", "6"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


def test_integral_float_grid_accepted(tmp_path):
    loaded = load_model(write_model(tmp_path / "m.json", grid_n=8.0))
    assert loaded.spec.grid.n == 8


def test_cli_count_deterministic_and_trusted(tmp_path, capsys):
    model = write_model(tmp_path / "m.json", mu1=0.014, mu2=0.014)
    args = ["count", "--model", model, "--zmin-exp", "0", "--zmax-exp", "3",
            "--out", str(tmp_path / "r1.csv")]
    assert main(args) == 0
    capsys.readouterr()
    args2 = args[:-1] + [str(tmp_path / "r2.csv")]
    assert main(args2) == 0
    capsys.readouterr()
    b1 = (tmp_path / "r1.csv").read_bytes()
    assert b1 == (tmp_path / "r2.csv").read_bytes()
    text = b1.decode()
    assert text.splitlines()[0] == "m_minus_z,count,det_min,hs_norm,hs_diff,trusted"
    assert "false" in text      # k=3 row is untrusted at n=8
    rep = CountReport.from_file(str(tmp_path / "r1.csv"))
    assert np.all(np.diff(rep.counts.astype(float)) >= 0) or \
        np.all(np.diff(rep.counts.astype(float)[::-1]) >= 0)


def test_cli_count_empty_sweep(tmp_path):
    model = write_model(tmp_path / "m.json", mu1=0.0, mu2=0.0)
    assert main(["count", "--model", model, "--zmin-exp", "3", "--zmax-exp", "1"]) == 2


def test_cli_count_overcritical_coupling_exits_3(tmp_path, capsys):
    model = write_model(tmp_path / "m.json", mu1=0.05, mu2=0.05)  # ~3x critical
    assert main(["count", "--model", model, "--zmin-exp", "2", "--zmax-exp", "3",
                 "--no-hs"]) == 3
    capsys.readouterr()


def test_cli_count_json_roundtrip(tmp_path, capsys):
    model = write_model(tmp_path / "m.json", mu1=0.0, mu2=0.0)
    out = tmp_path / "r.json"
    assert main(["count", "--model", model, "--zmin-exp", "0", "--zmax-exp", "2",
                 "--format", "json", "--out", str(out), "--no-hs"]) == 0
    capsys.readouterr()
    rep = CountReport.from_file(str(out))
    assert rep.counts.tolist() == [0, 0, 0]
    assert rep.meta["grid_n"] == 8


def test_cli_essential(tmp_path, capsys):
    model = write_model(tmp_path / "m.json")
    assert main(["essential", "--model", model, "--grid", "6"]) == 0
    out = capsys.readouterr().out
    assert "band = [" in out
    assert "lower edge" in out


def test_cli_efimov_with_count_report(tmp_path, capsys):
    model = write_model(tmp_path / "m.json")
    rep_path = tmp_path / "counts.csv"
    s = np.geomspace(1.0, 1e-2, 6)
    counts = np.round(0.07 * np.abs(np.log(s))).astype(int)
    rep = CountReport(m_minus_z=s, counts=counts, det_min=np.ones(6),
                      hs_norm=np.full(6, np.nan), hs_diff=np.full(6, np.nan),
                      trusted=np.ones(6, dtype=bool))
    rep_path.write_text(rep.to_csv())
    assert main(["efimov", "--model", model, "--grid", "6", "--r", "50,100",
                 "--count-report", str(rep_path)]) == 0
    out = capsys.readouterr().out
    assert "u12 = 1.1547" in out
    assert "U(1) = " in out
    assert "asymptotic slope" in out


@pytest.mark.parametrize("name,text", [
    ("empty.csv", ""),
    ("other.csv", "a,b\n1,2\n"),
    ("norows.json", '{"meta": {}}'),
], ids=["empty", "csv-without-columns", "json-without-rows"])
def test_cli_efimov_rejects_malformed_count_report(tmp_path, capsys, name, text):
    # the report is read before the first line of output
    model = write_model(tmp_path / "m.json")
    (tmp_path / name).write_text(text)
    with pytest.raises(ModelDataError):
        CountReport.from_file(str(tmp_path / name))
    assert main(["efimov", "--model", model, "--grid", "6", "--r", "50",
                 "--count-report", str(tmp_path / name)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")


def test_cli_efimov_exit3_on_degenerate_coupling(tmp_path):
    # cross_weight can't be zero, but a pair energy without cross term has l=0:
    # build it through a custom dispersion trick: eps(p-q) constant is not
    # expressible in the file schema, so emulate with mu-independent check via
    # API-level error mapping instead: a tabulated model refuses the hessian.
    grid = build_grid(4)
    vals = builtin_epsilon(grid.nodes)
    lines = ["q1,q2,q3,value"] + [
        f"{float(q[0])!r},{float(q[1])!r},{float(q[2])!r},{float(v)!r}" for q, v in zip(grid.nodes, vals)]
    (tmp_path / "eps.csv").write_text("\n".join(lines))
    model = write_model(tmp_path / "m.json", grid_n=4,
                        dispersion={"kind": "tabulated", "csv": "eps.csv"})
    assert main(["efimov", "--model", model]) == 3


def test_cli_usage_errors(tmp_path):
    assert main(["count", "--model", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["threshold", "--model", str(bad)]) == 2
    model = write_model(tmp_path / "m.json")
    assert main(["count", "--model", model, "--grid", "7"]) == 2


def test_cli_validate(tmp_path, capsys):
    model = write_model(tmp_path / "m.json")
    assert main(["validate", "--model", model]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "[pass]" in out and "[FAIL]" not in out


def test_cli_validate_checks_both_channels(tmp_path, capsys):
    # channel 1 peaks at the origin (ratio 0.986) but channel 2 does not
    # (1.00047): its determinant turns negative near threshold
    model = write_model(tmp_path / "m.json", grid_n=6,
                        dispersion={"kind": "builtin", "axis_weights": [1, 2, 3]},
                        pair_energy={"form": "sum", "cross_weight": 6.0},
                        phi1={"kind": "cos_axis", "axis": 1},
                        phi2={"kind": "sin_axis", "axis": 2})
    assert main(["count", "--model", model, "--zmin-exp", "3", "--zmax-exp", "3",
                 "--no-hs"]) == 3
    assert main(["validate", "--model", model]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] Lambda maximum at origin (grid)" in out
    assert "1 check(s) failed" in out


@pytest.mark.parametrize("flag,value", [("--lmax", "-1"), ("--lambda-max", "-3"),
                                        ("--lambda-max", "0"), ("--lambda-max", "inf")])
def test_cli_efimov_rejects_bad_range(tmp_path, capsys, flag, value):
    model = write_model(tmp_path / "m.json")
    assert main(["efimov", "--model", model, "--grid", "6", flag, value]) == 2
    assert "U(1)" not in capsys.readouterr().out


@pytest.mark.parametrize("delta", ["-1", "0"])
def test_cli_count_rejects_bad_cutoff(tmp_path, capsys, delta):
    model = write_model(tmp_path / "m.json")
    for hs in ([], ["--no-hs"]):
        assert main(["count", "--model", model, "--grid", "6", "--zmin-exp", "1",
                     "--zmax-exp", "2", "--delta", delta, *hs]) == 2
        assert capsys.readouterr().out == ""
    bad = write_model(tmp_path / "bad.json", delta=float(delta))
    with pytest.raises(ModelDataError):
        load_model(bad)


def test_cli_efimov_rejects_bad_radius_before_output(tmp_path, capsys):
    model = write_model(tmp_path / "m.json")
    for r in ("-50", "100,-50", "nan", "inf"):
        assert main(["efimov", "--model", model, "--grid", "6", "--r", r]) == 2
        assert capsys.readouterr().out == ""


def test_cli_efimov_radius_over_cap_exit4(tmp_path, capsys):
    # every S_r row is sized before the first line of output
    model = write_model(tmp_path / "m.json")
    for r in ("1e12", "100,1e12"):
        assert main(["efimov", "--model", model, "--grid", "6", "--r", r]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("resource error:")


@pytest.mark.parametrize("command", ["count", "essential", "validate"])
def test_cli_workspace_over_limit_exit4(capsys, command):
    # the n = 42 workspace (2.55 GB of sector rows, the symmetric block
    # buffer and row gathers) is refused before it exists
    model = str(Path(__file__).resolve().parent.parent / "models" / "builtin_critical.json")
    codes = []
    peak = traced_peak(lambda: codes.append(main([command, "--model", model, "--grid", "42"])))
    out, err = capsys.readouterr()
    assert codes == [4]
    assert peak < 2 ** 23          # loading the model, well below the 2.55 GB refused
    assert err.startswith("resource error:") and "count workspace" in err
    if command == "validate":
        assert "FAIL" not in out       # the refusal is an exit, not a failed check
    else:
        assert out == ""


def test_cli_validate_sizes_the_workspace_first(tmp_path, capsys, monkeypatch):
    # an oversized grid is refused before the first check prints, and the one
    # workspace built up front serves the Lambda-maximum check
    model = str(Path(__file__).resolve().parent.parent / "models" / "builtin_critical.json")
    assert main(["validate", "--model", model, "--grid", "42"]) == 4
    assert capsys.readouterr().out == ""
    built = []
    init = threebody._BSWorkspace.__init__
    monkeypatch.setattr(threebody._BSWorkspace, "__init__",
                        lambda ws, spec: built.append(spec) or init(ws, spec))
    assert main(["validate", "--model", write_model(tmp_path / "m.json"), "--grid", "6"]) == 0
    assert "all checks passed" in capsys.readouterr().out
    assert len(built) == 1


def test_cli_seed_only_on_validate(tmp_path, capsys):
    # only validate samples at random; every other command refuses --seed
    model = write_model(tmp_path / "m.json")
    assert main(["count", "--model", model, "--seed", "1"]) == 2
    assert main(["validate", "--model", model, "--seed", "1"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_cli_validate_rejects_negative_seed(tmp_path, capsys):
    model = write_model(tmp_path / "m.json")
    assert main(["validate", "--model", model, "--grid", "6", "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --seed")


@pytest.mark.parametrize("flag", ["--zmin-exp=nan", "--zmax-exp=inf", "--zmin-exp=-inf"])
def test_cli_count_rejects_nonfinite_exponent(tmp_path, capsys, flag):
    model = write_model(tmp_path / "m.json")
    assert main(["count", "--model", model, "--grid", "6", flag]) == 2
    assert capsys.readouterr().out == ""


def test_cli_count_rejects_an_overflowing_sweep(tmp_path, capsys):
    # finite exponents whose m - z = 10^400 overflows to inf: no inf row,
    # and no numpy overflow warning before the refusal
    model = write_model(tmp_path / "m.json")
    args = ["count", "--model", model, "--grid", "6", "--zmin-exp", "-400", "--zmax-exp", "-399"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    out, err = capsys.readouterr()
    assert out == "" and "finite" in err


@pytest.mark.parametrize("mu", ["nan", "inf", "0", "-1"])
def test_cli_efimov_rejects_bad_mu_before_output(tmp_path, capsys, mu):
    model = write_model(tmp_path / "m.json")
    assert main(["efimov", "--model", model, "--grid", "6", f"--mu={mu}"]) == 2
    assert capsys.readouterr().out == ""


def test_console_entry_point(tmp_path):
    model = write_model(tmp_path / "m.json", mu1=0.0, mu2=0.0)
    proc = subprocess.run(
        [sys.executable, "-m", "lattice3b.cli", "essential", "--model", model,
         "--grid", "4"],
        capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0
    assert "band" in proc.stdout
