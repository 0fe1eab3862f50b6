"""Model specification files.

JSON schema (all keys except grid_n optional where a default is shown):

    {
      "grid_n": 16,
      "dispersion": {"kind": "builtin", "axis_weights": [1, 1, 1]}
                  | {"kind": "tabulated", "csv": "eps.csv"},
      "pair_energy": {"form": "sum", "cross_weight": 1.0},
      "phi1": {"kind": "const", "value": 1.0}
            | {"kind": "sin_axis", "axis": 1}
            | {"kind": "cos_axis", "axis": 1},
      "phi2": {...},
      "mu1": "critical" | <number>,       # default 0
      "mu2": "critical" | <number>,
      "delta": 1.0                        # cutoff radius for HS diagnostics
    }

Tabulated dispersions are CSV files with columns q1,q2,q3,value whose rows
cover exactly the shifted grid nodes (any row order).  "critical" couplings
resolve to 1/Lambda_alpha(0, m) on the model's own grid.  Axes in form-factor
entries are 1-based.
"""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import ModelDataError
from .grids import build_grid
from .model import (Dispersion, FormFactor, ModelSpec, builtin_dispersion,
                    const_form_factor, cos_axis_form_factor, make_model,
                    pair_energy_sum, sin_axis_form_factor, tabulated_dispersion)
from .twobody import coupling_threshold


@dataclass(frozen=True)
class LoadedModel:
    spec: ModelSpec
    delta: float
    critical: tuple[bool, bool]


def load_dispersion_csv(path: str, n: int) -> Dispersion:
    """Read q1,q2,q3,value rows covering the n^3 shifted grid."""
    grid = build_grid(n)
    pts = []
    vals = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:4]] != ["q1", "q2", "q3", "value"]:
            raise ModelDataError(f"{path}: expected header q1,q2,q3,value")
        for row in reader:
            if not row:
                continue
            try:
                pts.append([float(row[0]), float(row[1]), float(row[2])])
                vals.append(float(row[3]))
            except (ValueError, IndexError) as exc:
                raise ModelDataError(f"{path}: bad row {row!r}") from exc
    pts = np.asarray(pts)
    vals = np.asarray(vals)
    if pts.shape[0] != grid.size:
        raise ModelDataError(
            f"{path}: {pts.shape[0]} rows do not cover the {grid.size}-node grid")
    # map rows onto grid ordering
    h = 2 * np.pi / n
    idx3 = np.rint((pts + np.pi - 0.5 * h) / h).astype(int)
    if (idx3 < 0).any() or (idx3 >= n).any():
        raise ModelDataError(f"{path}: points are not on the shifted {n}^3 grid")
    if np.max(np.abs(pts - (-np.pi + (idx3 + 0.5) * h))) > 1e-9:
        raise ModelDataError(f"{path}: points deviate from the shifted {n}^3 grid")
    flat = np.ravel_multi_index((idx3[:, 0], idx3[:, 1], idx3[:, 2]), (n, n, n))
    if np.unique(flat).size != grid.size:
        raise ModelDataError(f"{path}: duplicate or missing grid nodes")
    ordered = np.empty(grid.size)
    ordered[flat] = vals
    return tabulated_dispersion(grid, ordered)


def _number(value, name: str, integer: bool = False):
    """A finite JSON number from a model file; an integer field takes only
    integral values (16 or 16.0)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelDataError(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = np.inf
    if not np.isfinite(x) or (integer and not x.is_integer()):
        kind = "an integer" if integer else "a finite number"
        raise ModelDataError(f"{name} must be {kind}, got {value!r}")
    return int(value) if integer else x


def _section(value, name: str) -> dict:
    """A model-file section, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ModelDataError(f"{name} must be a JSON object, got {value!r}")
    return value


def _form_factor_from(cfg: dict, channel: int) -> FormFactor:
    cfg = _section(cfg, f"phi{channel}")
    kind = cfg.get("kind", "const")
    if kind == "const":
        return const_form_factor(channel, _number(cfg.get("value", 1.0), f"phi{channel} value"))
    axis = _number(cfg.get("axis", 1), f"phi{channel} axis", integer=True) - 1
    if kind == "sin_axis":
        return sin_axis_form_factor(channel, axis)
    if kind == "cos_axis":
        return cos_axis_form_factor(channel, axis)
    raise ModelDataError(f"unknown form factor kind {kind!r}")


def load_model(path: str, grid_override: int | None = None) -> LoadedModel:
    """Parse a model file, resolving "critical" couplings on the model's grid."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelDataError(f"{path}: not valid JSON ({exc})") from exc
    cfg = _section(cfg, path)
    if "grid_n" not in cfg and grid_override is None:
        raise ModelDataError(f"{path}: grid_n is required")
    n = int(grid_override) if grid_override is not None \
        else _number(cfg["grid_n"], "grid_n", integer=True)
    delta = _number(cfg.get("delta", 1.0), "delta")
    if not delta > 0:
        raise ModelDataError(f"{path}: delta must be finite and positive, got {delta}")

    disp_cfg = _section(cfg.get("dispersion", {"kind": "builtin"}), "dispersion")
    kind = disp_cfg.get("kind", "builtin")
    if kind == "builtin":
        weights = disp_cfg.get("axis_weights", [1.0, 1.0, 1.0])
        if not isinstance(weights, list):
            raise ModelDataError(f"axis_weights must be a list, got {weights!r}")
        disp = builtin_dispersion([_number(w, "axis weight") for w in weights])
    elif kind == "tabulated":
        csv_path = disp_cfg.get("csv")
        if not csv_path or not isinstance(csv_path, str):
            raise ModelDataError(f"tabulated dispersion needs a csv path, got {csv_path!r}")
        if not os.path.isabs(csv_path):
            csv_path = os.path.join(os.path.dirname(os.path.abspath(path)), csv_path)
        disp = load_dispersion_csv(csv_path, n)
    else:
        raise ModelDataError(f"unknown dispersion kind {kind!r}")

    pair_cfg = _section(cfg.get("pair_energy", {"form": "sum"}), "pair_energy")
    if pair_cfg.get("form", "sum") not in ("sum", "sum-of-dispersions"):
        raise ModelDataError(f"unsupported pair energy form {pair_cfg.get('form')!r}")
    pair = pair_energy_sum(disp, _number(pair_cfg.get("cross_weight", 1.0), "cross_weight"))

    phi1 = _form_factor_from(cfg.get("phi1", {}), 1)
    phi2 = _form_factor_from(cfg.get("phi2", {}), 2)

    mu_cfg = (cfg.get("mu1", 0.0), cfg.get("mu2", 0.0))
    critical = tuple(isinstance(v, str) and v == "critical" for v in mu_cfg)
    mu_start = [0.0 if c else _number(v, f"mu{a} (a number or 'critical')")
                for a, (v, c) in enumerate(zip(mu_cfg, critical), 1)]

    spec = make_model(pair, n, mu_start[0], mu_start[1], phi1, phi2)
    if any(critical):
        mu1 = coupling_threshold(spec, 1) if critical[0] else mu_start[0]
        mu2 = coupling_threshold(spec, 2) if critical[1] else mu_start[1]
        spec = spec.with_params(mu1=mu1, mu2=mu2)
    return LoadedModel(spec=spec, delta=delta, critical=critical)
