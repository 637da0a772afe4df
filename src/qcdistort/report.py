"""Aggregate per-face distortion fields into statistics, histograms, exports.

Folded-face policy (applied consistently everywhere): folded faces are
excluded from statistics, histograms, and the bound check; their count is
reported separately; in CSV rows their dilatation / bound cells are left
empty; in colored PLY exports they get the sentinel color magenta.

Aggregation is deterministic: values are reduced in face-index order with
exactly-rounded (compensated) summation, so reports are byte-identical
across runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .angular import AngularDistortionField, corner_distortion
from .beltrami import BeltramiField, MeshMap, face_beltrami
from .errors import DomainError, EmptyInputError
from .mesh import _blocks, _resolve_format, _write_ply

# slack for the per-corner bound check eps_angle <= eps_mu + BOUND_TOL
BOUND_TOL = 1e-9
DEFAULT_BINS = 50
FIELD_NAMES = ("abs_mu", "eps_angle_t", "eps_mu_t")
FOLDED_COLOR = (255, 0, 255)


@dataclass(frozen=True)
class FieldStats:
    mean: float
    max: float
    min: float
    std: float


@dataclass(frozen=True, eq=False)
class DistortionReport:
    """Aggregate distortion summary of one mesh map.

    ``stats`` and ``histograms`` map each of ``FIELD_NAMES`` to its summary
    (None when every face is folded).  The per-face fields used to build the
    report are kept for CSV export and further inspection.
    """

    face_count: int
    folded_count: int
    bound_violations: int
    stats: dict
    histograms: dict
    meta: dict
    beltrami: BeltramiField = field(repr=False)
    angular: AngularDistortionField = field(repr=False)

    def __repr__(self):
        return (
            f"DistortionReport(face_count={self.face_count}, "
            f"folded_count={self.folded_count}, "
            f"bound_violations={self.bound_violations})"
        )


def histogram(values, bin_count: int, value_range=None):
    """Uniform-bin histogram over ``value_range`` (default [0, max]).

    Values equal to the upper edge land in the last bin; values outside the
    range are excluded.  Returns (bin_edges, counts).

    Raises
    ------
    EmptyInputError, DomainError
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size == 0:
        raise EmptyInputError("cannot histogram an empty value list")
    if bin_count < 1:
        raise DomainError("bin_count must be >= 1")
    if value_range is None:
        lo, hi = 0.0, float(vals.max())
    else:
        lo, hi = float(value_range[0]), float(value_range[1])
    if hi <= lo:
        hi = lo + 1.0  # degenerate range (e.g. all zeros); widen to keep bins valid
    # numpy's edges are np.linspace(lo, hi, bin_count + 1)
    counts, edges = np.histogram(vals, bins=bin_count, range=(lo, hi))
    return edges, counts


def _field(name: str, beltrami: BeltramiField, angular: AngularDistortionField | None):
    """The per-face array of ``name``, one of ``FIELD_NAMES``."""
    if name == "eps_angle_t":
        return angular.face_avg
    return beltrami.abs_mu if name == "abs_mu" else beltrami.eps_mu


def _fsum_stats(values: np.ndarray) -> FieldStats | None:
    """Mean/max/min/std via exactly-rounded sequential summation."""
    if values.size == 0:
        return None
    seq = values.tolist()
    n = len(seq)
    mean = math.fsum(seq) / n
    # float_power calls the C pow that Python's ``** 2`` calls: the squares keep
    # their bits, where np.square and np.power differ in the last bit on some values
    var = math.fsum(np.float_power(values - mean, 2.0).tolist()) / n
    return FieldStats(
        mean=mean, max=float(values.max()), min=float(values.min()),
        std=math.sqrt(var),
    )


def summarize(
    mapping: MeshMap,
    bins: int = DEFAULT_BINS,
    source_path: str | None = None,
    target_path: str | None = None,
) -> DistortionReport:
    """Full distortion report of a mesh map.

    Computes the per-face Beltrami field and the angular distortion field,
    then aggregates |mu|, the face-averaged angular distortion, and the
    per-face bound 2*arcsin(|mu|) over the non-folded faces.

    ``bound_violations`` counts non-folded faces where some corner's angular
    distortion exceeds the face bound by more than 1e-9; zero is the healthy
    state.
    """
    bf = face_beltrami(mapping)
    ang = corner_distortion(mapping)
    ok = ~bf.folded

    fields = {name: _field(name, bf, ang)[ok] for name in FIELD_NAMES}
    stats = {name: _fsum_stats(vals) for name, vals in fields.items()}
    histograms = {name: histogram(vals, bins) if vals.size else None
                  for name, vals in fields.items()}
    over = ang.corner[ok] > (bf.eps_mu[ok] + BOUND_TOL)[:, None]
    violations = int(over.any(axis=1).sum())

    meta = {
        "source": source_path,
        "target": target_path,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "version": __version__,
    }
    return DistortionReport(
        face_count=mapping.n_faces,
        folded_count=bf.folded_count,
        bound_violations=violations,
        stats=stats,
        histograms=histograms,
        meta=meta,
        beltrami=bf,
        angular=ang,
    )


def report_to_dict(report: DistortionReport) -> dict:
    """JSON-ready dict with a fixed key order (see README for the schema)."""
    stats, hists = {}, {}
    for name in FIELD_NAMES:
        s, h = report.stats.get(name), report.histograms.get(name)
        stats[name] = None if s is None else asdict(s)
        hists[name] = None if h is None else {
            "bin_edges": [float(x) for x in h[0]],
            "counts": [int(x) for x in h[1]],
        }
    return {
        "face_count": report.face_count,
        "folded_count": report.folded_count,
        "bound_violations": report.bound_violations,
        "stats": stats,
        "histograms": hists,
        "meta": dict(report.meta),
    }


def report_json(report: DistortionReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def _write_csv(report: DistortionReport, path) -> None:
    # no cell needs quoting, so these are the bytes of csv.writer's default
    # dialect: comma-separated cells, CRLF row ends, floats as repr
    bf, ang = report.beltrami, report.angular
    columns = (bf.abs_mu, bf.dilatation, bf.eps_mu, ang.face_avg,
               ang.corner[:, 0], ang.corner[:, 1], ang.corner[:, 2])
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("face_id,abs_mu,k,eps_mu,eps_angle_t,corner_0,corner_1,corner_2,folded\r\n")
        for start, stop in _blocks(report.face_count):
            abs_mu, k, eps_mu, avg, c0, c1, c2 = (
                list(map(repr, col[start:stop].tolist())) for col in columns
            )
            folded = bf.folded[start:stop]
            for i in np.flatnonzero(folded).tolist():
                k[i] = eps_mu[i] = ""
            flags = map(("false", "true").__getitem__, folded.tolist())
            rows = zip(map(str, range(start, stop)), abs_mu, k, eps_mu, avg,
                       c0, c1, c2, flags)
            fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def export_report(report: DistortionReport, path, format: str | None = None) -> None:
    """Write a report as JSON (full summary) or CSV (one row per face).

    Raises
    ------
    ValueError, OSError
    """
    if _resolve_format(path, format, ("json", "csv")) == "json":
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(report_json(report))
    else:
        _write_csv(report, path)


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.floor(x + 0.5).astype(np.uint8)


def face_colors(values: np.ndarray, folded: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Linear blue-to-red colormap over [lo, hi], uint8 RGB per face.

    value = lo maps to (0, 0, 255), value = hi to (255, 0, 0); ties round
    half away from zero, so the midpoint is (128, 0, 128).  Folded faces get
    the magenta sentinel.
    """
    if hi <= lo:
        hi = lo + 1.0
    with np.errstate(invalid="ignore"):
        t = np.clip((values - lo) / (hi - lo), 0.0, 1.0)
    t = np.where(np.isfinite(t), t, 1.0)
    rgb = np.zeros((len(values), 3), dtype=np.uint8)
    rgb[:, 0] = _round_half_away(255.0 * t)
    rgb[:, 2] = _round_half_away(255.0 * (1.0 - t))
    rgb[folded] = FOLDED_COLOR
    return rgb


def export_colored_mesh(
    mapping: MeshMap,
    field_name: str,
    path,
    beltrami: BeltramiField | None = None,
    angular: AngularDistortionField | None = None,
) -> None:
    """Write the target mesh as ASCII PLY with per-face colors for a field.

    ``field_name`` is one of ``abs_mu``, ``eps_angle_t``, ``eps_mu_t``; the
    colormap spans [0, max over non-folded faces].  Precomputed fields can
    be passed to avoid recomputation.

    Raises
    ------
    OSError
    """
    if field_name not in FIELD_NAMES:
        raise ValueError(f"field must be one of {FIELD_NAMES}")
    if beltrami is None:
        beltrami = face_beltrami(mapping)
    if field_name == "eps_angle_t" and angular is None:
        angular = corner_distortion(mapping)

    values = _field(field_name, beltrami, angular)

    ok = ~beltrami.folded
    hi = float(values[ok].max()) if ok.any() else 1.0
    colors = face_colors(values, beltrami.folded, 0.0, hi)
    _write_ply(path, mapping.target.vertices, mapping.faces, face_colors=colors)
