import csv
import io
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcdistort
import qcdistort.angular
import qcdistort.beltrami
import qcdistort.mesh
import qcdistort.report
from qcdistort import (
    AngularDistortionField,
    DomainError,
    EmptyInputError,
    MeshMap,
    TriMesh,
    corner_distortion,
    export_colored_mesh,
    export_report,
    face_beltrami,
    histogram,
    report_json,
    report_to_dict,
    save_mesh,
    summarize,
)
from qcdistort.cli import main
from qcdistort.report import face_colors
from qcdistort.synth import irregular_disk, perturbed_target, scaled_map_target, wavy_disk

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402  (the benchmark's span recorder, read-only)


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


def reference_histogram(values, bin_count):
    """The explicit-edges form ``histogram`` replaced, kept as the reference."""
    vals = np.asarray(values, dtype=np.float64).ravel()
    hi = float(vals.max())
    if hi <= 0.0:
        hi = 1.0
    edges = np.linspace(0.0, hi, bin_count + 1)
    return edges, np.histogram(vals, bins=edges)[0]


class TestHistogram:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), bins=st.integers(1, 64), lo=st.floats(-1e3, 1e3),
           width=st.floats(1e-6, 1e3))
    def test_matches_explicit_linspace_edges(self, data, bins, lo, width):
        hi = lo + width
        # values on every edge of [lo, hi], and values on both sides of it
        edges = np.linspace(lo, hi, bins + 1).tolist()
        values = data.draw(st.lists(
            st.one_of(st.sampled_from(edges), st.floats(lo - width, hi + width)),
            min_size=1, max_size=60))
        want_edges, want_counts = reference_histogram(values, bins)
        if not (want_edges[:-1] < want_edges[1:]).all():
            # a subnormal maximum (say 5e-324) leaves too few distinct edges
            with pytest.raises(DomainError, match=re.escape(
                    f"histogram range [0.0, {float(want_edges[-1])!r}] is too narrow for {bins} bins")):
                histogram(values, bins)
            return
        got_edges, got_counts = histogram(values, bins)
        assert got_edges.tolist() == want_edges.tolist()
        assert got_counts.tolist() == want_counts.tolist()

    def test_all_zero(self):
        edges, counts = histogram([0, 0, 0], 2)
        assert counts.tolist() == [3, 0]
        assert np.allclose(edges, [0, 0.5, 1])

    def test_two_values(self):
        _, counts = histogram([0.1, 0.9], 2)
        assert counts.tolist() == [1, 1]

    def test_top_edge_in_last_bin(self):
        _, counts = histogram([1.0], 4)
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

    def test_non_finite_values_name_the_range(self):
        with pytest.raises(DomainError, match=re.escape("histogram range [0.0, nan] is not finite")):
            histogram([0.0, math.nan], 50)

    @pytest.mark.parametrize("values, message", [
        ([-math.inf, 0.5], "cannot histogram the non-finite value -inf at index 0"),
        ([0.5, 0.25, -math.inf], "cannot histogram the non-finite value -inf at index 2"),
    ])
    def test_non_finite_values_in_an_explicit_range_name_the_value(self, values, message):
        # -inf lies below [0, max] but is not excluded; NaN and +inf make max non-finite,
        # so they name the range (test_non_finite_values_name_the_range)
        with pytest.raises(DomainError, match=re.escape(message)):
            histogram(values, 4)

    @pytest.mark.parametrize("bins", [2, 50])
    def test_subnormal_range_too_narrow_for_the_bins(self, bins):
        with pytest.raises(DomainError, match=re.escape(
                f"histogram range [0.0, 5e-324] is too narrow for {bins} bins")):
            histogram([0.0, 5e-324], bins)


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

    @pytest.mark.parametrize("tol", [-1.0, "median"])
    def test_bound_violations_match_the_row_mask(self, flat_mesh, monkeypatch, tol):
        target = scaled_map_target(flat_mesh, 1.3, 0.7).vertices.copy()
        target[40] = target[0] + 1.5 * (target[0] - target[40])  # folds faces around 40
        mapping = MeshMap(flat_mesh, TriMesh(target, flat_mesh.faces))
        rep = summarize(mapping)
        bf, ang = rep.beltrami, rep.angular
        ok = ~bf.folded
        assert 0 < bf.folded_count < flat_mesh.n_faces
        if tol == "median":  # a slack that only some corners exceed
            tol = -float(np.median(bf.eps_mu[ok] - ang.corner[ok].max(axis=1)))
        monkeypatch.setattr(qcdistort.report, "BOUND_TOL", tol)
        want = int((ang.corner[ok] > (bf.eps_mu[ok] + tol)[:, None]).any(axis=1).sum())
        assert summarize(mapping).bound_violations == want
        assert 0 < want < ok.sum()
        # folded faces, whose eps_mu is NaN, would add to the count if read as 0
        with_folded = (ang.corner.max(axis=1) > np.nan_to_num(bf.eps_mu) + tol).sum()
        assert with_folded > want

    @pytest.mark.parametrize("excess, violations", [(2e-9, "all"), (5e-10, 0)])
    def test_bound_slack_lies_between_5e_10_and_2e_9(self, flat_mesh, excess, violations):
        """Every corner set ``excess`` above its face's eps_mu: 2e-9 counts on
        every face, 5e-10 on none, so the check's slack is pinned near 1e-9."""
        mapping = MeshMap(flat_mesh, scaled_map_target(flat_mesh, 1.3, 0.7))
        bf = face_beltrami(mapping)
        assert bf.folded_count == 0
        corner = np.repeat((bf.eps_mu + excess)[:, None], 3, axis=1)
        vars(mapping)["_fields"] = (bf, AngularDistortionField(corner, corner, corner[:, 0]))
        want = mapping.n_faces if violations == "all" else violations
        assert summarize(mapping).bound_violations == want


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

    @pytest.mark.parametrize("block_rows", [7, qcdistort.mesh._FACE_BLOCK])
    def test_csv_bytes_match_csv_writer(self, flat_mesh, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(qcdistort.mesh, "_FACE_BLOCK", block_rows)
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
        rgb = face_colors(values, folded, 1.0)
        assert rgb[0].tolist() == [0, 0, 255]
        assert rgb[1].tolist() == [128, 0, 128]
        assert rgb[2].tolist() == [255, 0, 0]

    def test_folded_sentinel(self):
        rgb = face_colors(np.array([0.2]), np.array([True]), 1.0)
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
    want = face_colors(vals, rep.beltrami.folded, float(vals.max()))
    assert [row.split()[4:] for row in rows] == want.astype(str).tolist()


def spy_block_passes(monkeypatch):
    """The maps on which ``beltrami._map_fields``, the block pass, runs, in order, from
    whichever module calls it."""
    passes, real = [], qcdistort.beltrami._map_fields
    for module in (qcdistort.beltrami, qcdistort.angular, qcdistort.report):
        if hasattr(module, "_map_fields"):
            monkeypatch.setattr(module, "_map_fields",
                                lambda mapping: passes.append(mapping) or real(mapping))
    return passes


@pytest.mark.parametrize("first", range(4))
def test_one_block_pass_per_map(flat_mesh, tmp_path, monkeypatch, first):
    """Whichever reader comes first runs the pass; the others read what the map keeps."""
    passes = spy_block_passes(monkeypatch)
    mapping = MeshMap(flat_mesh, scaled_map_target(flat_mesh, 1.3, 0.7))
    readers = [face_beltrami, corner_distortion, summarize,
               lambda m: export_colored_mesh(m, "eps_angle_t", tmp_path / "c.ply")]
    for read in readers[first:] + readers[:first]:
        read(mapping)
    assert passes == [mapping]
    assert summarize(mapping).beltrami is face_beltrami(mapping)
    assert summarize(mapping).angular is corner_distortion(mapping)
    assert passes == [mapping]


def test_cli_analyze_runs_one_block_pass(flat_mesh, tmp_path, monkeypatch):
    passes = spy_block_passes(monkeypatch)
    src, dst = tmp_path / "src.obj", tmp_path / "dst.off"
    save_mesh(flat_mesh, src)
    save_mesh(scaled_map_target(flat_mesh, 1.3, 0.7), dst)
    argv = ["analyze", str(src), str(dst), "--out", str(tmp_path / "r.json"), "--quiet",
            "--csv", str(tmp_path / "r.csv"), "--ply-out", str(tmp_path / "r.ply")]
    assert main(argv) == 0
    assert len(passes) == 1


@pytest.mark.parametrize("dim", [2, 3])
def test_traced_summarize_times_its_block_pass_as_a_child(dim):
    """In the benchmark's traced runs the block pass is a child span of
    ``report.summarize``, so ``report.aggregate`` is the rest of it."""
    if dim == 2:
        source = irregular_disk(600)
        target = perturbed_target(source, np.random.default_rng(3))
    else:
        source = wavy_disk(600)
        target = TriMesh(source.vertices * [1.0, 0.8, 3.0], source.faces)
    recorder = tracer.Tracer()
    recorder.install()
    try:
        start = time.perf_counter()
        qcdistort.summarize(qcdistort.MeshMap(source, target))
        wall = time.perf_counter() - start
    finally:
        recorder.uninstall()
    spans = recorder.take()
    names = {span[tracer.SPAN_ID]: span[tracer.SPAN_NAME] for span in spans}
    kind = "planar" if dim == 2 else "surface"
    assert [names[span[tracer.SPAN_PARENT]] for span in spans
            if span[tracer.SPAN_NAME] == f"beltrami.face_beltrami.{kind}"] == ["report.summarize"]
    metrics = tracer.layer_metrics([(wall, spans)])
    assert 0 < metrics["report.aggregate_s"] < metrics["report.summarize_s"]
