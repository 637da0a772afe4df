"""Aggregate per-face distortion fields into statistics, histograms, exports.

Folded-face policy (applied consistently everywhere): folded faces are
excluded from statistics, histograms, and the bound check; their count is
reported separately; in CSV rows their dilatation / bound cells are left
empty; in colored PLY exports they get the sentinel color magenta.

Aggregation is deterministic: each sum is exact and rounded once, so no order
of the values changes it.  One round of error-free extraction (Rump, Ogita &
Oishi 2008) per block of n terms leaves residuals whose float sum errs by less
than n*n*2**(top-106); as in their AccSum, the sum stops there unless that
bound could move the rounding, and ``math.fsum`` decides the sums it leaves
open.  The variance sums IEEE squares, correctly rounded with no libm, so
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
from .angular import corner_distortion
from .beltrami import AngularDistortionField, BeltramiField, MeshMap, face_beltrami
from .errors import DomainError, EmptyInputError, _sized_by
from .mesh import _face_blocks, _resolve_format, _write_ply, _write_text

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


def histogram(values, bin_count: int):
    """Uniform-bin histogram over [0, max], or [0, 1] when max <= 0.

    Values equal to the upper edge land in the last bin; negative values
    are excluded, non-finite ones raise, and so does a ``bin_count`` too
    large to allocate.  Returns (bin_edges, counts).

    Raises
    ------
    EmptyInputError, DomainError
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size == 0:
        raise EmptyInputError("cannot histogram an empty value list")
    if bin_count < 1:
        raise DomainError("bin_count must be >= 1")
    edges = _uniform_edges(float(vals.max()), bin_count)
    if vals.min() == -math.inf:  # NaN and +inf make the range non-finite
        i = int(np.argmin(np.isfinite(vals)))
        raise DomainError(f"cannot histogram the non-finite value {float(vals[i])!r} at index {i}")
    return edges, _bin_counts(vals, edges)


def _uniform_edges(hi: float, bin_count: int) -> np.ndarray:
    """The ``bin_count + 1`` edges ``np.histogram`` builds over [0, hi], or [0, 1] when
    hi <= 0; a DomainError when the range is not finite or too narrow for the bins."""
    if hi <= 0.0:
        hi = 1.0  # degenerate range (e.g. all zeros); widen to keep bins valid
    if not math.isfinite(hi):
        raise DomainError(f"histogram range [0.0, {hi!r}] is not finite")
    with _sized_by(f"bin_count {bin_count}"):
        edges = np.linspace(0.0, hi, bin_count + 1)
        narrow = not (edges[:-1] < edges[1:]).all()
    if narrow:
        raise DomainError(f"histogram range [0.0, {hi!r}] is too narrow for {bin_count} bins")
    return edges


def _bin_counts(vals: np.ndarray, edges: np.ndarray, folded=None) -> np.ndarray:
    """``np.histogram``'s counts of finite ``vals`` up to ``edges[-1]`` over the uniform
    ``edges`` from 0, negative and ``folded`` values left out, counted block by block with
    its bin index and its two fix-ups at the edges, in which that index may be off by one."""
    bins, hi = edges.size - 1, edges[-1]
    with _sized_by(f"bin_count {bins}"):
        counts = np.zeros(bins, np.intp)
        for _, v in _terms(vals, folded):
            keep = v >= 0.0
            if not keep.all():
                v = v[keep]
            k = (v / hi * bins).astype(np.intp)
            k[k == bins] -= 1
            k[v < edges[k]] -= 1
            k[(v >= edges[k + 1]) & (k != bins - 1)] += 1
            counts += np.bincount(k, minlength=bins)
    return counts


def _field(name: str, beltrami: BeltramiField, angular: AngularDistortionField | None):
    """The per-face array of ``name``, one of ``FIELD_NAMES``."""
    if name == "eps_angle_t":
        return angular.face_avg
    return beltrami.abs_mu if name == "abs_mu" else beltrami.eps_mu


def _terms(values: np.ndarray, folded=None, mean: float | None = None):
    """The ``_FACE_BLOCK`` blocks of ``values`` without their ``folded`` faces (or of the
    squares of their deviations from ``mean``), each with its first term's kept index."""
    start = 0
    for rows in _face_blocks(values.size):
        block = values[rows] if folded is None else values[rows][~folded[rows]]
        yield start, block if mean is None else np.square(block - mean)
        start += block.size


def _exact_sum(values: np.ndarray, mean: float | None = None, folded=None) -> float:
    """The exact sum of a 1-D float64 array, or of the squares of its deviations from
    ``mean``, over the values not ``folded``, rounded once: ``math.fsum``'s bits.

    Each block of ``n`` terms (:func:`_terms`) takes one round of error-free extraction:
    with ``2 ** top > (n + 2) * max |term|``, ``sigma = 2 ** top`` splits every term into
    ``q = (term + sigma) - sigma``, whose sum is exact in any order, and a residual of at
    most ``2 ** (top - 53)``, whose float sum errs by less than ``n * n * 2 ** (top - 106)``
    (Higham 2002, 4.2).  As in Rump, Ogita & Oishi's AccSum, the sum stops when that
    cannot move the rounding: when the total, widened either way by twice the bound,
    rounds to one double below ``2 ** 1023``.  Otherwise, or when a ``sigma`` would
    overflow, ``math.fsum`` over the same terms decides.

    Raises
    ------
    DomainError
        On a NaN or an infinity among the terms, named by its index among the kept values.
    OverflowError
        As ``math.fsum``, when the terms it sums have a partial sum past the double range.
    """
    total, slack, unit = 0, 0, 1 << 1074  # units of 2 ** -1074; int / int rounds correctly
    for start, terms in _terms(values, folded, mean):
        lo, hi = float(terms.min(initial=0.0)), float(terms.max(initial=0.0))
        if not -math.inf < lo <= hi < math.inf:  # a NaN fails every comparison
            i = int(np.argmin(np.isfinite(terms)))
            raise DomainError(f"cannot sum the non-finite value {float(terms[i])!r} "
                              f"at index {start + i}")
        if lo == hi == 0.0:
            continue
        top = math.frexp(max(-lo, hi))[1] + (terms.size + 2).bit_length()
        if top > 1023:  # sigma would overflow: a slack that fails the stop test leaves it to fsum
            slack = unit << 1023
            continue
        sigma = math.ldexp(1.0, top)
        q = terms + sigma
        q -= sigma
        res = np.subtract(terms, q, out=None if mean is None else terms)
        for part in q.sum(), res.sum():  # in units of 2 ** -1074
            num, den = float(part).as_integer_ratio()
            total += num << (1075 - den.bit_length())
        slack += math.ceil(terms.size ** 2 * 2 ** (top - 105 + 1074))  # n * n * 2 ** (top - 105)
    if abs(total) + slack < unit << 1023 and (total - slack) / unit == (total + slack) / unit:
        return total / unit
    return math.fsum(x for _, terms in _terms(values, folded, mean) for x in terms.tolist())


def _fsum_stats(values: np.ndarray, folded=None) -> FieldStats | None:
    """Mean/max/min/std from exactly rounded sums, over the values not ``folded``."""
    n = values.size - (0 if folded is None else int(np.count_nonzero(folded)))
    if n == 0:
        return None
    mean = _exact_sum(values, folded=folded) / n
    # IEEE multiplication rounds each square correctly, so its bits are the same
    # on every platform, where libm's pow may differ in the last bit
    var = _exact_sum(values, mean, folded) / n
    if folded is None:
        lo, hi = values.min(), values.max()
    else:  # the sums found every kept value finite
        lo = min(block.min(initial=math.inf) for _, block in _terms(values, folded))
        hi = max(block.max(initial=-math.inf) for _, block in _terms(values, folded))
    return FieldStats(mean=mean, max=float(hi), min=float(lo), std=math.sqrt(var))


def summarize(
    mapping: MeshMap,
    bins: int = DEFAULT_BINS,
    source_path: str | None = None,
    target_path: str | None = None,
) -> DistortionReport:
    """Full distortion report of a mesh map.

    Reads the map's per-face Beltrami and angular distortion fields (one
    pass over fixed blocks of faces of the target, and of the source on its
    first map, run on first use), then aggregates |mu|, the face-averaged
    angular distortion, and the per-face bound 2*arcsin(|mu|) over the
    non-folded faces, in the same blocks.

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
    # the public field functions, so a traced run times the block pass on its own
    bf, ang = face_beltrami(mapping), corner_distortion(mapping)
    folded = bf.folded if bf.folded_count else None  # each block masked on its own

    stats, histograms = {}, dict.fromkeys(FIELD_NAMES)
    for name in FIELD_NAMES:
        vals = _field(name, bf, ang)
        stats[name] = _fsum_stats(vals, folded)
        if stats[name] is not None:  # the statistics found every value finite, and the maximum
            edges = _uniform_edges(stats[name].max, bins)
            histograms[name] = edges, _bin_counts(vals, edges, folded)
    # each face's largest corner against its bound; a folded face's NaN bound never counts
    violations = sum(
        int(np.count_nonzero(np.maximum.reduce(ang.corner[rows].T) > bf.eps_mu[rows] + BOUND_TOL))
        for rows in _face_blocks(mapping.n_faces))

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


def face_colors(values: np.ndarray, folded: np.ndarray, hi: float) -> np.ndarray:
    """Linear blue-to-red colormap over [0, hi], uint8 RGB per face.

    value = 0 maps to (0, 0, 255), value = hi to (255, 0, 0); ties round
    half away from zero, so the midpoint is (128, 0, 128).  Folded faces get
    the magenta sentinel.
    """
    if hi <= 0.0:
        hi = 1.0
    with np.errstate(invalid="ignore"):
        t = np.clip(values / hi, 0.0, 1.0)
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
    colormap spans [0, max over non-folded faces].  The fields default to
    the map's own.

    Raises
    ------
    OSError
    """
    if field_name not in FIELD_NAMES:
        raise ValueError(f"field must be one of {FIELD_NAMES}")
    if beltrami is None or (field_name == "eps_angle_t" and angular is None):
        beltrami, angular = mapping._fields

    values = _field(field_name, beltrami, angular)
    hi = max(block.max(initial=0.0) for _, block in _terms(values, beltrami.folded))
    colors = face_colors(values, beltrami.folded, float(hi))
    _write_ply(path, mapping.target.vertices, mapping.faces, face_colors=colors)
