"""The benchmark's oracle accepts genuine outputs and rejects corrupted ones.

Run from the repository root:  python -m pytest perfbench/test_oracle.py
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import oracle  # noqa: E402
from qcdistort import (  # noqa: E402
    MeshMap,
    ParamConfig,
    TriMesh,
    export_colored_mesh,
    export_report,
    report_json,
    report_to_dict,
    save_mesh,
    summarize,
    synth,
    tutte_disk,
)


@pytest.fixture(scope="module")
def planar(tmp_path_factory):
    """A planar map with two folded faces, and its report, CSV and PLY."""
    src = synth.irregular_disk(400)
    xy = synth.perturbed_target(src, np.random.default_rng(7)).vertices.copy()
    v = 150
    ring = np.unique(src.faces[(src.faces == v).any(axis=1)])
    u = ring[ring != v].min()
    xy[v] = xy[u] + 0.5 * (xy[u] - xy[v])
    dst = TriMesh(xy, src.faces)
    mapping = MeshMap(src, dst)
    rep = summarize(mapping)
    out = tmp_path_factory.mktemp("planar")
    export_report(rep, out / "f.csv")
    export_colored_mesh(mapping, "abs_mu", out / "c.ply", beltrami=rep.beltrami)
    expected = oracle.expected_map(src.vertices, dst.vertices, src.faces)
    return src, expected, report_to_dict(rep), out


def test_genuine_planar_outputs_pass(planar):
    src, expected, report, out = planar
    assert report["folded_count"] == 2
    assert oracle.check_report(report, expected) == []
    assert oracle.check_csv(out / "f.csv", expected, report) == []
    assert oracle.check_ply(out / "c.ply", src.n_vertices, src.n_faces) == []


@pytest.mark.parametrize("path, change", [
    (("face_count",), lambda x: x - 1),
    (("folded_count",), lambda x: x + 1),
    (("bound_violations",), lambda x: 1),
    (("stats", "abs_mu", "mean"), lambda x: x * (1 + 1e-6)),
    (("stats", "abs_mu", "max"), lambda x: x + 1e-6),
    (("stats", "abs_mu", "min"), lambda x: x - 1e-6),
    (("stats", "eps_mu_t", "mean"), lambda x: x * 1.001),
    (("histograms", "abs_mu", "counts"), lambda x: x[:-1]),
])
def test_corrupted_report_fails(planar, path, change):
    _, expected, report, _ = planar
    bad = copy.deepcopy(report)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = change(node[path[-1]])
    assert oracle.check_report(bad, expected)


def _rewrite(src_path, dst_path, edit):
    lines = src_path.read_text().splitlines(keepends=True)
    dst_path.write_text("".join(edit(lines)))
    return dst_path


def _bump_abs_mu(lines):
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) + 1e-7)
    return lines[:5] + [",".join(cells)] + lines[6:]


def _flip_folded(lines):
    row = lines[3].rstrip("\n")
    row = row[:-5] + "true" if row.endswith("false") else row[:-4] + "false"
    return lines[:3] + [row + "\n"] + lines[4:]


@pytest.mark.parametrize("edit", [
    lambda lines: lines[:-1],                       # a row is missing
    lambda lines: [lines[0].replace("abs_mu", "mu")] + lines[1:],
    _bump_abs_mu,
    _flip_folded,
])
def test_corrupted_csv_fails(planar, tmp_path, edit):
    _, expected, report, out = planar
    bad = _rewrite(out / "f.csv", tmp_path / "bad.csv", edit)
    assert oracle.check_csv(bad, expected, report)


def test_corrupted_ply_fails(planar, tmp_path):
    src, _, _, out = planar
    bad = _rewrite(out / "c.ply", tmp_path / "bad.ply",
                   lambda lines: [ln.replace(f"element face {src.n_faces}",
                                             f"element face {src.n_faces + 1}")
                                  for ln in lines])
    assert oracle.check_ply(bad, src.n_vertices, src.n_faces)
    truncated = _rewrite(out / "c.ply", tmp_path / "short.ply", lambda lines: lines[:-3])
    assert oracle.check_ply(truncated, src.n_vertices, src.n_faces)


@pytest.mark.parametrize("weights", ["uniform", "cotangent"])
def test_flat_obj_checks(tmp_path, weights):
    surf = synth.bumpy_disk(400)
    mapping = tutte_disk(surf, ParamConfig(weights=weights))
    save_mesh(mapping.target, tmp_path / "flat.obj")
    errors, uv = oracle.check_flat_obj(tmp_path / "flat.obj", surf.vertices,
                                       surf.faces, weights)
    assert errors == []
    expected = oracle.expected_map(surf.vertices, uv, surf.faces)
    assert oracle.check_report(report_to_dict(summarize(mapping)), expected) == []

    boundary = oracle.boundary_vertices(surf.faces)
    interior = np.setdiff1d(np.arange(surf.n_vertices), boundary)
    for vertex, shift in ((interior[0], 1e-6), (boundary[0], 1e-6)):
        moved = uv.copy()
        moved[vertex] *= 1 + shift
        save_mesh(TriMesh(moved, surf.faces), tmp_path / "bad.obj")
        errors, _ = oracle.check_flat_obj(tmp_path / "bad.obj", surf.vertices,
                                          surf.faces, weights)
        assert errors


def test_surface_abs_mu_matches_planar_formula():
    src = synth.irregular_disk(300)
    dst = synth.perturbed_target(src, np.random.default_rng(3))
    planar, _ = oracle.planar_abs_mu(src.vertices, dst.vertices, src.faces)
    lifted = np.column_stack([src.vertices, np.zeros(src.n_vertices)])
    surface = oracle.metric_abs_mu(lifted, dst.vertices, src.faces)
    assert np.allclose(planar, surface, rtol=0, atol=1e-10)


def test_reports_differing_only_in_timestamp_compare_equal(planar):
    src, _, _, _ = planar
    dst = synth.perturbed_target(src, np.random.default_rng(1))
    rep = summarize(MeshMap(src, dst))
    a = report_json(rep).encode()
    b = a.replace(rep.meta["timestamp"].encode(), b"1999-01-01T00:00:00+00:00")
    assert a != b
    assert oracle.normalized_report(a) == oracle.normalized_report(b)
    assert oracle.normalized_report(a) != oracle.normalized_report(
        a.replace(b'"folded_count": 0', b'"folded_count": 1'))
