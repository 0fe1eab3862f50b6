"""Report containers and their CSV/JSON serializations.

CSV headers are stable identifiers; JSON mirrors the rows under "rows" with a
"meta" block.  Float formatting is fixed so identical runs are byte-identical.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelDataError


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


@dataclass(frozen=True)
class CountReport:
    """Eigenvalue-count sweep below the essential spectrum.

    One row per spectral point: distance m - z, the count N(z), the smallest
    determinant value over grid nodes and channels, the Hilbert-Schmidt norm of
    the sandwich operator, the HS distance to the model kernel, and whether the
    point is trusted (m - z at least (2 pi/n)^2 / 10).
    """

    m_minus_z: np.ndarray
    counts: np.ndarray
    det_min: np.ndarray
    hs_norm: np.ndarray
    hs_diff: np.ndarray
    trusted: np.ndarray
    meta: dict = field(default_factory=dict)

    COLUMNS = ("m_minus_z", "count", "det_min", "hs_norm", "hs_diff", "trusted")

    def rows(self):
        for i in range(len(self.m_minus_z)):
            yield (self.m_minus_z[i], int(self.counts[i]), self.det_min[i],
                   self.hs_norm[i], self.hs_diff[i], bool(self.trusted[i]))

    def to_csv(self) -> str:
        lines = [",".join(self.COLUMNS)]
        lines += [",".join(_fmt(v) for v in row) for row in self.rows()]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "meta": self.meta,
            "rows": [dict(zip(self.COLUMNS, [float(r[0]), r[1], float(r[2]),
                                             float(r[3]), float(r[4]), r[5]]))
                     for r in self.rows()],
        }
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"

    @classmethod
    def from_file(cls, path: str) -> "CountReport":
        """Read a report written by to_csv or to_json; a file without the
        report's rows or columns raises ModelDataError."""
        try:
            with open(path) as fh:
                text = fh.read()
            if text.lstrip().startswith("{"):
                payload = json.loads(text)
                rows, meta = payload["rows"], payload.get("meta", {})
                cols = {name: [r[name] for r in rows] for name in cls.COLUMNS}
            else:
                lines = [ln.split(",") for ln in text.splitlines() if ln.strip()]
                header, meta = lines[0], {}
                cols = {name: [row[header.index(name)] for row in lines[1:]]
                        for name in cls.COLUMNS}
                cols["trusted"] = [v == "true" for v in cols["trusted"]]
            return cls(m_minus_z=np.array(cols["m_minus_z"], dtype=float),
                       counts=np.array(cols["count"], dtype=int),
                       det_min=np.array(cols["det_min"], dtype=float),
                       hs_norm=np.array(cols["hs_norm"], dtype=float),
                       hs_diff=np.array(cols["hs_diff"], dtype=float),
                       trusted=np.array(cols["trusted"], dtype=bool),
                       meta=meta)
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            raise ModelDataError(f"{path} is not a count report ({exc!r})") from exc


@dataclass(frozen=True)
class EssentialSpectrumReport:
    """Band [m, M], per-channel branch values over the p-grid, and the lower edge."""

    band: tuple[float, float]
    branch_values: dict[int, np.ndarray]     # NaN where no channel eigenvalue
    lower_edge: float
    meta: dict = field(default_factory=dict)

    def branch_points(self, alpha: int) -> np.ndarray:
        vals = self.branch_values[alpha]
        return vals[np.isfinite(vals)]

    def to_csv(self) -> str:
        lines = ["channel,node_index,branch_value"]
        for alpha in sorted(self.branch_values):
            vals = self.branch_values[alpha]
            for i in np.flatnonzero(np.isfinite(vals)):
                lines.append(f"{alpha},{i},{_fmt(vals[i])}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "meta": self.meta,
            "band": [float(self.band[0]), float(self.band[1])],
            "lower_edge": float(self.lower_edge),
            "rows": [
                {"channel": int(alpha), "node_index": int(i),
                 "branch_value": float(self.branch_values[alpha][i])}
                for alpha in sorted(self.branch_values)
                for i in np.flatnonzero(np.isfinite(self.branch_values[alpha]))
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"


@dataclass(frozen=True)
class CurveReport:
    """A generic (x, value) table, e.g. U(mu) curves or mode tables."""

    x_name: str
    x: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = [f"{self.x_name},value"]
        lines += [f"{_fmt(a)},{_fmt(b)}" for a, b in zip(self.x, self.values)]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {"meta": self.meta,
                   "rows": [{self.x_name: float(a), "value": float(b)}
                            for a, b in zip(self.x, self.values)]}
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def write_report(report, path: str, fmt: str = "csv") -> None:
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    text = report.to_csv() if fmt == "csv" else report.to_json()
    with open(path, "w") as fh:
        fh.write(text)
