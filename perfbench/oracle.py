"""Output checks for the benchmark, written with numpy alone.

Nothing here calls qcdistort: the expected values come from the benchmark's
own arrays (the generated inputs), by formulas written independently of the
package.  Every ``check_*`` function returns a list of error strings, empty
when the output is correct.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

CSV_HEADER = ["face_id", "abs_mu", "k", "eps_mu", "eps_angle_t",
              "corner_0", "corner_1", "corner_2", "folded"]
# |mu| computed here and by the package agree to about 1e-14 on planar maps
# and 1e-10 on surfaces (the singular-value formula cancels on near-conformal
# faces); the tolerances leave room for that and still catch any change
# above the 1e-9 level.
ABS_MU_ATOL = 1e-9
STAT_ATOL = 1e-9
UNIT_CIRCLE_ATOL = 1e-12
RESIDUAL_ATOL = 1e-9

_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


def normalized_report(data: bytes) -> bytes:
    """Report bytes with ``meta.timestamp`` blanked, for byte comparison."""
    return _TIMESTAMP.sub(b'"timestamp": ""', data)


# ---------------------------------------------------------------------------
# expected values
# ---------------------------------------------------------------------------

def undirected_edges(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique undirected edges (sorted pairs) and how many faces use each."""
    pairs = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    pairs.sort(axis=1)
    return np.unique(pairs, axis=0, return_counts=True)


def boundary_vertices(faces: np.ndarray) -> np.ndarray:
    """Vertices on edges that belong to exactly one face."""
    edges, uses = undirected_edges(faces)
    return np.unique(edges[uses == 1])


def _signed_double_area(xy: np.ndarray, faces: np.ndarray) -> np.ndarray:
    p = xy[faces]
    return ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def planar_abs_mu(src_xy: np.ndarray, dst_xy: np.ndarray, faces: np.ndarray):
    """|f_zbar / f_z| of each face's affine map, and the Jacobian determinant.

    The Jacobian is D S^-1, with S and D the 2x2 edge matrices of the source
    and target triangles.
    """
    s = src_xy[faces][:, :, :2]
    d = dst_xy[faces][:, :, :2]
    S = np.stack([s[:, 1] - s[:, 0], s[:, 2] - s[:, 0]], axis=2)
    D = np.stack([d[:, 1] - d[:, 0], d[:, 2] - d[:, 0]], axis=2)
    J = D @ np.linalg.inv(S)
    a, b, c, dd = J[:, 0, 0], J[:, 0, 1], J[:, 1, 0], J[:, 1, 1]
    fz = 0.5 * ((a + dd) + 1j * (c - b))
    fzbar = 0.5 * ((a - dd) + 1j * (c + b))
    return np.abs(fzbar) / np.abs(fz), a * dd - b * c


def metric_abs_mu(src: np.ndarray, dst: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """|mu| = (s1 - s2) / (s1 + s2) from the singular values s1 >= s2 of each
    face's linear map, read off the two first fundamental forms; valid in
    any dimension for faces that keep their orientation."""
    def gram(v):
        t = v[faces]
        e1, e2 = t[:, 1] - t[:, 0], t[:, 2] - t[:, 0]
        return (e1 * e1).sum(1), (e1 * e2).sum(1), (e2 * e2).sum(1)

    g11, g12, g22 = gram(src)
    h11, h12, h22 = gram(dst)
    det_g = g11 * g22 - g12 * g12
    # M = G^-1 H: trace and determinant give the squared singular values
    tr = (g22 * h11 - 2.0 * g12 * h12 + g11 * h22) / det_g
    det = (h11 * h22 - h12 * h12) / det_g
    disc = np.sqrt(np.maximum(0.25 * tr * tr - det, 0.0))
    s1 = np.sqrt(0.5 * tr + disc)
    s2 = np.sqrt(np.maximum(0.5 * tr - disc, 0.0))
    return (s1 - s2) / (s1 + s2)


def expected_map(src: np.ndarray, dst: np.ndarray, faces: np.ndarray) -> dict:
    """Expected per-face |mu| and fold flags of the map src -> dst.

    A planar target folds a face when its signed area has the opposite sign
    to the source's (a 3D source face counts as positively oriented).  What
    a fold of a 3D target is remains undefined in the package, which flags
    none, so no face of a 3D target is expected to be folded and the fold
    count of such a map is not checked (``fold_checked`` is False).
    """
    src_planar = src.shape[1] == 2 or not np.abs(src[:, 2]).max() > 1e-12
    dst_planar = dst.shape[1] == 2 or not np.abs(dst[:, 2]).max() > 1e-12
    if src_planar and dst_planar:
        abs_mu, jac_det = planar_abs_mu(src, dst, faces)
        folded = jac_det <= 0
    else:
        abs_mu = metric_abs_mu(src, dst, faces)
        if dst_planar:
            folded = _signed_double_area(dst, faces) <= 0
        else:
            folded = np.zeros(len(faces), dtype=bool)
    return {"abs_mu": abs_mu, "folded": folded, "faces": len(faces),
            "fold_checked": dst_planar}


# ---------------------------------------------------------------------------
# checks on outputs
# ---------------------------------------------------------------------------

def check_report(report: dict, expected: dict) -> list[str]:
    """Counts, bound check and |mu| statistics of a JSON report."""
    errors = []
    ok = ~expected["folded"]
    if report.get("face_count") != expected["faces"]:
        errors.append(f"face_count {report.get('face_count')} != {expected['faces']}")
    if expected["fold_checked"] and report.get("folded_count") != int((~ok).sum()):
        errors.append(f"folded_count {report.get('folded_count')} != {int((~ok).sum())}")
    if report.get("bound_violations") != 0:
        errors.append(f"bound_violations {report.get('bound_violations')} != 0")
    vals = expected["abs_mu"][ok]
    want = {
        "abs_mu": {"mean": vals.mean(), "max": vals.max(), "min": vals.min()},
        "eps_mu_t": {"mean": (2.0 * np.arcsin(vals)).mean()},
    }
    for field, stats in want.items():
        got = (report.get("stats") or {}).get(field) or {}
        for key, value in stats.items():
            if not (isinstance(got.get(key), float)
                    and abs(got[key] - value) <= STAT_ATOL):
                errors.append(f"stats.{field}.{key} {got.get(key)!r} != {value!r}")
    hist = (report.get("histograms") or {}).get("abs_mu") or {}
    if sum(hist.get("counts", [])) != int(ok.sum()):
        errors.append("abs_mu histogram does not count every non-folded face")
    return errors


def check_csv(path, expected: dict, report: dict) -> list[str]:
    """Header, one row per face, the abs_mu and folded columns, and that
    the report's abs_mu statistics are exactly those of the CSV column."""
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != CSV_HEADER:
        return [f"CSV header {rows[0] if rows else None} != {CSV_HEADER}"]
    body = rows[1:]
    if len(body) != expected["faces"]:
        return [f"CSV has {len(body)} rows, expected {expected['faces']}"]
    errors = []
    ids = np.array([int(r[0]) for r in body])
    if not np.array_equal(ids, np.arange(len(body))):
        errors.append("CSV face_id column is not 0..n-1")
    abs_mu = np.array([float(r[1]) for r in body])
    folded = np.array([r[8] == "true" for r in body])
    if not np.array_equal(folded, expected["folded"]):
        errors.append("CSV folded column differs from det <= 0")
    ok = ~expected["folded"]
    if not np.allclose(abs_mu[ok], expected["abs_mu"][ok], rtol=0, atol=ABS_MU_ATOL):
        worst = float(np.abs(abs_mu[ok] - expected["abs_mu"][ok]).max())
        errors.append(f"CSV abs_mu differs from f_zbar/f_z by up to {worst:.3e}")
    stats = (report.get("stats") or {}).get("abs_mu") or {}
    column = abs_mu[ok].tolist()
    if column and (stats.get("mean") != math.fsum(column) / len(column)
                   or stats.get("max") != max(column)
                   or stats.get("min") != min(column)):
        errors.append("report abs_mu stats are not those of the CSV column")
    return errors


def check_ply(path, n_vertices: int, n_faces: int) -> list[str]:
    """ASCII PLY header counts, color properties and body line count."""
    with open(path, "rb") as fh:
        data = fh.read()
    head, sep, body = data.partition(b"end_header\n")
    if not sep:
        return ["PLY has no end_header line"]
    lines = head.decode("ascii", "replace").splitlines()
    errors = []
    if lines[:2] != ["ply", "format ascii 1.0"]:
        errors.append(f"PLY preamble {lines[:2]}")
    if f"element vertex {n_vertices}" not in lines:
        errors.append(f"PLY header lacks 'element vertex {n_vertices}'")
    if f"element face {n_faces}" not in lines:
        errors.append(f"PLY header lacks 'element face {n_faces}'")
    for channel in ("red", "green", "blue"):
        if f"property uchar {channel}" not in lines:
            errors.append(f"PLY header lacks the {channel} face property")
    if body.count(b"\n") != n_vertices + n_faces:
        errors.append("PLY body line count differs from the header counts")
    return errors


def read_obj(path) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and 0-based faces of a plain ``v``/``f`` OBJ file."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    v = [ln[2:] for ln in lines if ln.startswith(b"v ")]
    f = [ln[2:] for ln in lines if ln.startswith(b"f ")]
    verts = np.array(b" ".join(v).split(), dtype=np.float64).reshape(len(v), -1)
    faces = np.array(b" ".join(f).split(), dtype=np.int64).reshape(len(f), 3) - 1
    return verts, faces


def weight_rows(surface: np.ndarray, faces: np.ndarray, weights: str):
    """(i, j, w) triplets of the Tutte weights, both directions per edge."""
    if weights == "uniform":
        edges, _ = undirected_edges(faces)
        i, j = edges[:, 0], edges[:, 1]
        w = np.ones(len(edges))
    else:
        t = surface[faces]
        i_list, j_list, w_list = [], [], []
        for k in range(3):
            u = t[:, (k + 1) % 3] - t[:, k]
            v = t[:, (k + 2) % 3] - t[:, k]
            cot = (u * v).sum(1) / np.linalg.norm(np.cross(u, v), axis=1)
            i_list.append(faces[:, (k + 1) % 3])
            j_list.append(faces[:, (k + 2) % 3])
            w_list.append(0.5 * cot)
        i, j, w = (np.concatenate(x) for x in (i_list, j_list, w_list))
    return np.concatenate([i, j]), np.concatenate([j, i]), np.concatenate([w, w])


def check_flat_obj(path, surface: np.ndarray, faces: np.ndarray, weights: str):
    """A written Tutte embedding: connectivity, z = 0, boundary on the unit
    circle, interior vertices at their weighted neighbour average, and no
    folds under uniform weights.  Returns (errors, uv)."""
    verts, got_faces = read_obj(path)
    if verts.shape != (len(surface), 3) or not np.array_equal(got_faces, faces):
        return ["flattened OBJ does not keep the source connectivity"], None
    errors = []
    if np.any(verts[:, 2] != 0.0):
        errors.append("flattened OBJ has non-zero z")
    uv = verts[:, :2]
    bnd = boundary_vertices(faces)
    radius_err = float(np.abs(np.hypot(uv[bnd, 0], uv[bnd, 1]) - 1.0).max())
    if radius_err > UNIT_CIRCLE_ATOL:
        errors.append(f"boundary vertices leave the unit circle by {radius_err:.3e}")
    rows, cols, w = weight_rows(surface, faces, weights)
    resid = np.zeros_like(uv)
    np.add.at(resid, rows, w[:, None] * (uv[cols] - uv[rows]))
    interior = np.setdiff1d(np.arange(len(uv)), bnd)
    worst = float(np.abs(resid[interior]).max())
    if worst > RESIDUAL_ATOL:
        errors.append(f"weighted-average residual {worst:.3e} > {RESIDUAL_ATOL:g}")
    if weights == "uniform" and (_signed_double_area(uv, faces) <= 0).any():
        errors.append("uniform embedding has folded faces")
    return errors, uv


def map_counts(n_vertices: int, faces: np.ndarray, expected: dict, report: dict) -> dict:
    """Exact size and outcome counts of one map, for the traced run."""
    return {
        "faces": len(faces),
        "vertices": n_vertices,
        "edges": len(undirected_edges(faces)[0]),
        "boundary_vertices": len(boundary_vertices(faces)),
        "folded_faces": int(expected["folded"].sum()),
        "bound_violations": int(report.get("bound_violations", -1)),
    }
