import csv
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcdistort.mesh
import qcdistort.report
from qcdistort import (
    DomainError,
    EmptyInputError,
    MeshMap,
    TriMesh,
    export_colored_mesh,
    export_report,
    histogram,
    report_json,
    report_to_dict,
    summarize,
)
from qcdistort.report import face_colors
from qcdistort.synth import scaled_map_target, wavy_disk


@pytest.fixture(scope="module")
def flat_mesh():
    mesh = wavy_disk(200)
    return TriMesh(mesh.vertices[:, :2], mesh.faces)


@pytest.fixture(scope="module")
def squeeze_report(flat_mesh):
    mapping = MeshMap(flat_mesh, scaled_map_target(flat_mesh, 1.0, 0.5))
    return summarize(mapping, source_path="src.obj", target_path="dst.obj")


def reference_csv(report):
    """The csv.writer export the block writer replaced, kept as the reference."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["face_id", "abs_mu", "k", "eps_mu", "eps_angle_t",
                     "corner_0", "corner_1", "corner_2", "folded"])
    bf, ang = report.beltrami, report.angular
    for i in range(report.face_count):
        folded = bool(bf.folded[i])
        writer.writerow([
            i,
            repr(float(bf.abs_mu[i])),
            "" if folded else repr(float(bf.dilatation[i])),
            "" if folded else repr(float(bf.eps_mu[i])),
            repr(float(ang.face_avg[i])),
            repr(float(ang.corner[i, 0])),
            repr(float(ang.corner[i, 1])),
            repr(float(ang.corner[i, 2])),
            "true" if folded else "false",
        ])
    return buf.getvalue().encode("ascii")


def reference_histogram(values, bin_count, value_range=None):
    """The explicit-edges form ``histogram`` replaced, kept as the reference."""
    vals = np.asarray(values, dtype=np.float64).ravel()
    lo, hi = (0.0, float(vals.max())) if value_range is None else map(float, value_range)
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bin_count + 1)
    return edges, np.histogram(vals, bins=edges)[0]


class TestHistogram:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), bins=st.integers(1, 64), lo=st.floats(-1e3, 1e3),
           width=st.floats(1e-6, 1e3), ranged=st.booleans())
    def test_matches_explicit_linspace_edges(self, data, bins, lo, width, ranged):
        hi = lo + width
        # values on every edge of the range, and values on both sides of it
        edges = np.linspace(lo, hi, bins + 1).tolist()
        values = data.draw(st.lists(
            st.one_of(st.sampled_from(edges), st.floats(lo - width, hi + width)),
            min_size=1, max_size=60))
        value_range = (lo, hi) if ranged else None
        got_edges, got_counts = histogram(values, bins, value_range)
        want_edges, want_counts = reference_histogram(values, bins, value_range)
        assert got_edges.tolist() == want_edges.tolist()
        assert got_counts.tolist() == want_counts.tolist()

    def test_all_zero(self):
        edges, counts = histogram([0, 0, 0], 2, (0, 1))
        assert counts.tolist() == [3, 0]
        assert np.allclose(edges, [0, 0.5, 1])

    def test_two_values(self):
        _, counts = histogram([0.1, 0.9], 2, (0, 1))
        assert counts.tolist() == [1, 1]

    def test_top_edge_in_last_bin(self):
        _, counts = histogram([1.0], 4, (0, 1))
        assert counts.tolist() == [0, 0, 0, 1]

    def test_default_range_is_zero_to_max(self):
        edges, counts = histogram([0.5, 2.0], 4)
        assert edges[0] == 0 and edges[-1] == 2.0
        assert counts.sum() == 2

    def test_errors(self):
        with pytest.raises(EmptyInputError):
            histogram([], 4)
        with pytest.raises(DomainError):
            histogram([1.0], 0)


class TestSummarize:
    def test_identity_all_zero(self, flat_mesh):
        rep = summarize(MeshMap(flat_mesh, flat_mesh))
        assert rep.folded_count == 0
        assert rep.bound_violations == 0
        for name in ("abs_mu", "eps_angle_t", "eps_mu_t"):
            assert rep.stats[name].mean == 0
            assert rep.stats[name].max == 0

    def test_constant_squeeze(self, squeeze_report):
        rep = squeeze_report
        assert rep.stats["abs_mu"].mean == pytest.approx(1 / 3, abs=1e-10)
        assert rep.stats["abs_mu"].max == pytest.approx(1 / 3, abs=1e-10)
        assert rep.stats["eps_mu_t"].mean == pytest.approx(0.679674, abs=1e-6)
        assert rep.stats["eps_angle_t"].mean <= 0.679674
        assert rep.bound_violations == 0
        counts = rep.histograms["abs_mu"][1]
        assert counts.sum() == rep.face_count - rep.folded_count

    def test_flipped_face_excluded(self):
        # two disconnected triangles, target reflects the second one
        src = TriMesh(
            [[0, 0], [1, 0], [0, 1], [5, 0], [6, 0], [5, 1]],
            [[0, 1, 2], [3, 4, 5]],
        )
        tgt_verts = np.asarray(src.vertices, dtype=float).copy()
        tgt_verts[5, 1] = -1.0
        rep = summarize(MeshMap(src, TriMesh(tgt_verts, src.faces)))
        assert rep.face_count == 2
        assert rep.folded_count == 1
        assert rep.stats["abs_mu"].max == 0.0
        assert rep.histograms["abs_mu"][1].sum() == 1

    def test_ordering_invariant(self, squeeze_report):
        rep = squeeze_report
        assert rep.stats["eps_angle_t"].max <= rep.stats["eps_mu_t"].max + 1e-9
        assert rep.stats["eps_angle_t"].mean <= rep.stats["eps_mu_t"].mean + 1e-9

    def test_small_mu_linearization(self, flat_mesh):
        target = scaled_map_target(flat_mesh, 1.0, 0.95)
        rep = summarize(MeshMap(flat_mesh, target))
        mu_mean = rep.stats["abs_mu"].mean
        mu_max = rep.stats["abs_mu"].max
        assert mu_max <= 0.1
        eps_mean = rep.stats["eps_mu_t"].mean
        assert 2 * mu_mean <= eps_mean <= 2 * mu_mean * (1 + mu_max**2)


class TestExports:
    def test_json_roundtrip(self, squeeze_report, tmp_path):
        path = tmp_path / "rep.json"
        export_report(squeeze_report, path, "json")
        data = json.loads(path.read_text())
        assert data["face_count"] == squeeze_report.face_count
        assert data["stats"]["abs_mu"]["mean"] == squeeze_report.stats["abs_mu"].mean
        assert data["meta"]["source"] == "src.obj"
        assert set(data["histograms"]["eps_mu_t"]) == {"bin_edges", "counts"}

    def test_format_from_extension_in_any_case(self, squeeze_report, tmp_path):
        path = tmp_path / "r.JSON"
        export_report(squeeze_report, path)
        assert path.read_text() == report_json(squeeze_report)

    def test_unsupported_format_named(self, squeeze_report, tmp_path):
        with pytest.raises(ValueError, match=re.escape(
                "unsupported format 'txt'; expected one of ('json', 'csv')")):
            export_report(squeeze_report, tmp_path / "r.txt")
        assert not (tmp_path / "r.txt").exists()

    def test_json_matches_report_dict(self, squeeze_report):
        assert json.loads(report_json(squeeze_report)) == report_to_dict(squeeze_report)

    def test_csv_shape(self, squeeze_report, tmp_path):
        path = tmp_path / "rep.csv"
        export_report(squeeze_report, path, "csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == squeeze_report.face_count + 1
        assert lines[0] == ("face_id,abs_mu,k,eps_mu,eps_angle_t,"
                            "corner_0,corner_1,corner_2,folded")
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(1 / 3, abs=1e-10)
        assert first[-1] == "false"

    def test_csv_folded_row_has_empty_cells(self, tmp_path):
        src = TriMesh(
            [[0, 0], [1, 0], [0, 1], [5, 0], [6, 0], [5, 1]],
            [[0, 1, 2], [3, 4, 5]],
        )
        tgt = np.asarray(src.vertices, float).copy()
        tgt[5, 1] = -1.0
        rep = summarize(MeshMap(src, TriMesh(tgt, src.faces)))
        path = tmp_path / "rep.csv"
        export_report(rep, path, "csv")
        row = path.read_text().strip().splitlines()[2].split(",")
        assert row[2] == "" and row[3] == ""
        assert row[-1] == "true"

    @pytest.mark.parametrize("block_rows", [7, qcdistort.mesh._WRITE_BLOCK_ROWS])
    def test_csv_bytes_match_csv_writer(self, flat_mesh, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(qcdistort.mesh, "_WRITE_BLOCK_ROWS", block_rows)
        target = scaled_map_target(flat_mesh, 1.3, 0.7).vertices.copy()
        target[40] = target[0] + 1.5 * (target[0] - target[40])  # folds faces around 40
        rep = summarize(MeshMap(flat_mesh, TriMesh(target, flat_mesh.faces)))
        assert 0 < rep.folded_count < rep.face_count
        path = tmp_path / "rep.csv"
        export_report(rep, path, "csv")
        assert path.read_bytes() == reference_csv(rep)

    def test_determinism_excluding_timestamp(self, flat_mesh, tmp_path):
        mapping = MeshMap(flat_mesh, scaled_map_target(flat_mesh, 1.1, 0.8))
        texts = []
        for i in range(2):
            rep = summarize(mapping)
            path = tmp_path / f"rep{i}.json"
            export_report(rep, path, "json")
            lines = [
                ln for ln in path.read_text().splitlines()
                if '"timestamp"' not in ln
            ]
            texts.append("\n".join(lines))
        assert texts[0] == texts[1]


class TestColoredMesh:
    def test_colormap_endpoints_and_midpoint(self):
        values = np.array([0.0, 0.5, 1.0])
        folded = np.zeros(3, dtype=bool)
        rgb = face_colors(values, folded, 0.0, 1.0)
        assert rgb[0].tolist() == [0, 0, 255]
        assert rgb[1].tolist() == [128, 0, 128]
        assert rgb[2].tolist() == [255, 0, 0]

    def test_folded_sentinel(self):
        rgb = face_colors(np.array([0.2]), np.array([True]), 0.0, 1.0)
        assert rgb[0].tolist() == [255, 0, 255]

    def test_constant_field_single_color(self, flat_mesh, tmp_path):
        mapping = MeshMap(flat_mesh, scaled_map_target(flat_mesh, 1.0, 0.5))
        path = tmp_path / "m.ply"
        export_colored_mesh(mapping, "abs_mu", path)
        lines = path.read_text().splitlines()
        start = lines.index("end_header") + 1 + flat_mesh.n_vertices
        colors = {tuple(ln.split()[4:]) for ln in lines[start:]}
        assert colors == {("255", "0", "0")}  # constant field maps to hi -> red

    def test_field_choice_validated(self, flat_mesh, tmp_path):
        mapping = MeshMap(flat_mesh, flat_mesh)
        with pytest.raises(ValueError):
            export_colored_mesh(mapping, "banana", tmp_path / "x.ply")


def test_all_faces_folded_degrades_gracefully(tmp_path):
    src = TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    mirrored = TriMesh([[0, 0], [1, 0], [0, -1]], [[0, 1, 2]])
    rep = summarize(MeshMap(src, mirrored))
    assert rep.folded_count == 1
    assert rep.bound_violations == 0
    assert rep.stats["abs_mu"] is None
    assert rep.histograms["abs_mu"] is None
    data = json.loads(report_json(rep))
    assert data["stats"]["abs_mu"] is None
    path = tmp_path / "folded.csv"
    export_report(rep, path, "csv")
    row = path.read_text().strip().splitlines()[1].split(",")
    assert row[2] == "" and row[-1] == "true"
    ply = tmp_path / "folded.ply"
    export_colored_mesh(MeshMap(src, mirrored), "abs_mu", ply)
    assert ply.read_text().strip().endswith("3 0 1 2 255 0 255")


def test_field_stats_are_fsum_based(flat_mesh):
    # mean must match an independent exact mean on a tricky float set
    mapping = MeshMap(flat_mesh, scaled_map_target(flat_mesh, 1.0, 0.5))
    rep = summarize(mapping)
    vals = rep.beltrami.abs_mu[~rep.beltrami.folded]
    assert rep.stats["abs_mu"].mean == math.fsum(vals.tolist()) / len(vals)


@pytest.mark.parametrize("name, column", [
    ("abs_mu", lambda rep: rep.beltrami.abs_mu),
    ("eps_angle_t", lambda rep: rep.angular.face_avg),
    ("eps_mu_t", lambda rep: rep.beltrami.eps_mu),
])
def test_each_field_reads_its_per_face_array(flat_mesh, tmp_path, name, column):
    mapping = MeshMap(flat_mesh, scaled_map_target(flat_mesh, 1.0, 0.5))
    rep = summarize(mapping)
    vals = column(rep)
    assert rep.stats[name].mean == math.fsum(vals.tolist()) / len(vals)
    assert rep.stats[name].max == vals.max()
    path = tmp_path / "c.ply"
    export_colored_mesh(mapping, name, path)
    rows = path.read_text().splitlines()[-flat_mesh.n_faces:]
    want = face_colors(vals, rep.beltrami.folded, 0.0, float(vals.max()))
    assert [row.split()[4:] for row in rows] == want.astype(str).tolist()
