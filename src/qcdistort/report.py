"""Aggregate per-face distortion fields into statistics, histograms, exports.

Folded-face policy (applied consistently everywhere): folded faces are
excluded from statistics, histograms, and the bound check; their count is
reported separately; in CSV rows their dilatation / bound cells are left
empty; in colored PLY exports they get the sentinel color magenta.

Aggregation is deterministic: every sum is the exact sum of its values
rounded once, which no order of the values can change, and the variance
sums IEEE squares, which are correctly rounded and so need no libm, so
reports are byte-identical across runs and platforms.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from ._rowtext import CSV
from .angular import AngularDistortionField, _angular_field
from .beltrami import BeltramiField, MeshMap, _map_fields
from .errors import DomainError, EmptyInputError
from .mesh import _resolve_format, _write_ply, _write_text

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
    range are excluded, non-finite ones raise.  Returns (bin_edges, counts).

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
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"histogram range [{lo!r}, {hi!r}] is not finite")
    edges = np.linspace(lo, hi, bin_count + 1)  # the edges np.histogram builds
    if not (edges[:-1] < edges[1:]).all():
        raise DomainError(f"histogram range [{lo!r}, {hi!r}] is too narrow for {bin_count} bins")
    if not np.isfinite(vals).all():
        i = int(np.argmin(np.isfinite(vals)))
        raise DomainError(f"cannot histogram the non-finite value {float(vals[i])!r} at index {i}")
    return edges, np.histogram(vals, bins=bin_count, range=(lo, hi))[0]


def _field(name: str, beltrami: BeltramiField, angular: AngularDistortionField | None):
    """The per-face array of ``name``, one of ``FIELD_NAMES``."""
    if name == "eps_angle_t":
        return angular.face_avg
    return beltrami.abs_mu if name == "abs_mu" else beltrami.eps_mu


# values per bincount pass: at most 2 ** 26 integer parts below 2 ** 27 keep
# every partial sum of a bucket an integer below 2 ** 53, which a double holds
_SUM_SLICE = 2 ** 26


def _exact_sum(values: np.ndarray) -> float:
    """The exact sum of a 1-D float64 array rounded once: ``math.fsum``'s bits.

    ``np.frexp`` writes a finite double, subnormals included, as ``m * 2 ** e``
    with ``0.5 <= |m| < 1`` (``m = e = 0`` for a zero), so ``M = m * 2 ** 26``
    has at most 26 integer and 27 fraction bits.  ``hi = trunc(M)`` and ``lo =
    (M - hi) * 2 ** 27`` are then exact integers, ``|hi| < 2 ** 26`` and ``|lo|
    < 2 ** 27``, and the value is ``(hi * 2 ** 27 + lo) * 2 ** (e - 53)``.
    ``np.bincount`` sums each part per exponent over slices of at most
    ``_SUM_SLICE`` values, so every bucket total is exact.  The buckets are
    joined as Python ints in units of ``2 ** -1126``, the least ``2 ** (e -
    53)``, and the total is rounded once, as ``math.fsum`` rounds (Shewchuk
    1997).

    Raises
    ------
    DomainError
        On a NaN or an infinity.
    """
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError(f"cannot sum the non-finite value {float(values[i])!r} at index {i}")
    total = 0
    for start in range(0, values.size, _SUM_SLICE):
        m, e = np.frexp(values[start:start + _SUM_SLICE])
        np.ldexp(m, 26, out=m)
        hi = np.trunc(m)
        m -= hi
        lo = np.ldexp(m, 27, out=m)
        least = int(e.min())
        e -= least
        hi_sums, lo_sums = np.bincount(e, weights=hi), np.bincount(e, weights=lo)
        nonzero = np.flatnonzero((hi_sums != 0) | (lo_sums != 0))
        for k, hi_sum, lo_sum in zip(nonzero.tolist(), hi_sums[nonzero].tolist(),
                                     lo_sums[nonzero].tolist()):
            total += ((int(hi_sum) << 27) + int(lo_sum)) << (k + least - 53 + 1126)
    # int / int rounds correctly, half to even
    return total / (1 << 1126)


def _fsum_stats(values: np.ndarray) -> FieldStats | None:
    """Mean/max/min/std from exactly rounded sums."""
    if values.size == 0:
        return None
    n = values.size
    mean = _exact_sum(values) / n
    # IEEE multiplication rounds each square correctly, so its bits are the same
    # on every platform, where libm's pow may differ in the last bit
    var = _exact_sum(np.square(values - mean)) / n
    return FieldStats(
        mean=mean, max=float(values.max()), min=float(values.min()),
        std=math.sqrt(var),
    )


def _fields(mapping: MeshMap):
    """The Beltrami and angular distortion fields of a map from one block pass."""
    bf, signed = _map_fields(mapping)
    return bf, _angular_field(signed)


def summarize(
    mapping: MeshMap,
    bins: int = DEFAULT_BINS,
    source_path: str | None = None,
    target_path: str | None = None,
) -> DistortionReport:
    """Full distortion report of a mesh map.

    Computes the per-face Beltrami field and the angular distortion field in
    one pass over fixed blocks of faces of both meshes, then aggregates
    |mu|, the face-averaged angular distortion, and the per-face bound
    2*arcsin(|mu|) over the non-folded faces.

    ``bound_violations`` counts non-folded faces where some corner's angular
    distortion exceeds the face bound by more than 1e-9; zero is the healthy
    state.

    Raises
    ------
    DomainError
        When ``bins`` is below 1, whether or not any face is unfolded.
    """
    if bins < 1:
        raise DomainError("bins must be >= 1")
    bf, ang = _fields(mapping)
    ok = ~bf.folded

    stats, histograms = {}, {}
    for name in FIELD_NAMES:  # one masked copy alive at a time
        vals = _field(name, bf, ang)[ok]
        stats[name] = _fsum_stats(vals)
        histograms[name] = histogram(vals, bins) if vals.size else None
    # each face's largest corner against its bound; a folded face's NaN bound never counts
    violations = int(np.count_nonzero(np.maximum.reduce(ang.corner.T) > bf.eps_mu + BOUND_TOL))

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
    bf, ang = report.beltrami, report.angular
    columns = (np.arange(report.face_count), bf.abs_mu, bf.dilatation, bf.eps_mu,
               ang.face_avg, *ang.corner.T, bf.folded)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("face_id,abs_mu,k,eps_mu,eps_angle_t,corner_0,corner_1,corner_2,folded\r\n")
        _write_text(fh, [(CSV, columns, report.face_count)])


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
    rgb[np.flatnonzero(folded)] = FOLDED_COLOR
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
    if beltrami is None or (field_name == "eps_angle_t" and angular is None):
        beltrami, angular = _fields(mapping)

    values = _field(field_name, beltrami, angular)

    ok = ~beltrami.folded
    hi = float(values[ok].max()) if ok.any() else 1.0
    colors = face_colors(values, beltrami.folded, 0.0, hi)
    _write_ply(path, mapping.target.vertices, mapping.faces, face_colors=colors)
