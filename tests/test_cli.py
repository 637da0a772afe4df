import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg

import qcdistort
from qcdistort import load_mesh, save_mesh
from qcdistort.cli import main
from qcdistort.synth import flat_disk, hemisphere, scaled_map_target, tetrahedron


@pytest.fixture(scope="module")
def meshes(tmp_path_factory):
    root = tmp_path_factory.mktemp("meshes")
    disk = flat_disk(8)
    save_mesh(disk, root / "disk.obj")
    save_mesh(scaled_map_target(disk, 1.0, 0.5), root / "disk_half.obj")
    save_mesh(hemisphere(8), root / "hemi.obj")
    save_mesh(tetrahedron(), root / "tetra.obj")
    other = flat_disk(6)
    save_mesh(other, root / "other.obj")
    return root


class TestAnalyze:
    def test_identity_report(self, meshes, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["analyze", str(meshes / "disk.obj"), str(meshes / "disk.obj"),
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["stats"]["abs_mu"]["max"] == 0
        assert data["folded_count"] == 0
        assert "report written" in capsys.readouterr().out

    def test_connectivity_mismatch_exit_3(self, meshes, capsys):
        code = main(["analyze", str(meshes / "disk.obj"), str(meshes / "other.obj")])
        assert code == 3
        assert "connectivity mismatch" in capsys.readouterr().err

    def test_missing_file_exit_2(self, meshes, capsys):
        code = main(["analyze", str(meshes / "nope.obj"), str(meshes / "disk.obj")])
        assert code == 2

    def test_json_flag_prints_valid_json(self, meshes, capsys):
        code = main(["analyze", str(meshes / "disk.obj"),
                     str(meshes / "disk_half.obj"), "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["stats"]["abs_mu"]["mean"] == pytest.approx(1 / 3, abs=1e-10)

    def test_csv_and_ply_outputs(self, meshes, tmp_path):
        csv_path = tmp_path / "faces.csv"
        ply_path = tmp_path / "colored.ply"
        code = main([
            "analyze", str(meshes / "disk.obj"), str(meshes / "disk_half.obj"),
            "--out", str(tmp_path / "r.json"),
            "--csv", str(csv_path),
            "--ply-out", str(ply_path), "--field", "abs_mu",
        ])
        assert code == 0
        assert csv_path.exists() and ply_path.exists()
        assert ply_path.read_text().startswith("ply")

    def test_degrees_display_only(self, meshes, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["analyze", str(meshes / "disk.obj"),
                     str(meshes / "disk_half.obj"), "--out", str(out), "--degrees"])
        assert code == 0
        shown = capsys.readouterr().out
        assert "deg" in shown
        data = json.loads(out.read_text())
        # JSON stays in radians
        assert data["stats"]["eps_mu_t"]["mean"] == pytest.approx(
            2 * math.asin(1 / 3), abs=1e-9
        )

    def test_unknown_flag_rejected(self, meshes):
        code = main(["analyze", str(meshes / "disk.obj"), str(meshes / "disk.obj"),
                     "--frobnicate"])
        assert code == 2

    def test_folded_faces_warn_but_exit_zero(self, tmp_path, capsys):
        src = tmp_path / "src.obj"
        dst = tmp_path / "dst.obj"
        src.write_text(
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 5 0 0\nv 6 0 0\nv 5 1 0\n"
            "f 1 2 3\nf 4 5 6\n"
        )
        dst.write_text(
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 5 0 0\nv 6 0 0\nv 5 -1 0\n"
            "f 1 2 3\nf 4 5 6\n"
        )
        out = tmp_path / "rep.json"
        code = main(["analyze", str(src), str(dst), "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "folded" in captured.err
        assert json.loads(out.read_text())["folded_count"] == 1


class TestParam:
    def test_flatten_disk_topology(self, meshes, tmp_path, capsys):
        out = tmp_path / "flat.obj"
        code = main(["param", str(meshes / "hemi.obj"), "-o", str(out)])
        assert code == 0
        flat = load_mesh(out)
        assert flat.dimension == 2
        assert np.linalg.norm(flat.vertices[:, :2], axis=1).max() <= 1 + 1e-9

    def test_closed_mesh_exit_3(self, meshes, capsys):
        code = main(["param", str(meshes / "tetra.obj")])
        assert code == 3
        assert "boundary" in capsys.readouterr().err

    def test_cotangent_with_analyze_chain(self, meshes, tmp_path, capsys):
        out = tmp_path / "flat.obj"
        code = main(["param", str(meshes / "hemi.obj"), "-o", str(out),
                     "--weights", "cotangent", "--analyze"])
        assert code == 0
        report = json.loads((tmp_path / "flat.obj.report.json").read_text())
        assert report["bound_violations"] == 0

    def test_failed_solve_exit_1(self, meshes, tmp_path, capsys, monkeypatch):
        # scipy returns NaN instead of raising on a singular matrix
        monkeypatch.setattr(scipy.sparse.linalg, "spsolve",
                            lambda a, b: np.full(b.shape, np.nan))
        code = main(["param", str(meshes / "hemi.obj"), "-o", str(tmp_path / "f.obj")])
        assert code == 1
        assert "residual" in capsys.readouterr().err


class TestTheory:
    def test_default_suite_passes(self, capsys):
        code = main(["theory", "--seed", "42"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_single_case_mode(self, capsys):
        code = main(["theory", "--k", "2", "--theta", "1.0472", "--grid", "5000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "formula" in out and "grid" in out

    def test_grid_clamped_with_warning(self, capsys):
        code = main(["theory", "--grid", "10", "--k", "2", "--theta", "0.5"])
        captured = capsys.readouterr()
        assert code == 0
        assert "clamping" in captured.err

    def test_json_output(self, capsys):
        code = main(["theory", "--grid", "2000", "--json"])
        assert code == 0
        checks = json.loads(capsys.readouterr().out)
        assert all(c["passed"] for c in checks)

    def test_theta_without_k_rejected(self, capsys):
        assert main(["theory", "--theta", "0.5"]) == 2


class TestErrorExitCodes:
    @pytest.mark.parametrize("argv", [
        ["analyze", "{disk}", "{disk}", "--bins", "0"],
        ["theory", "--k", "0.5"],
        ["theory", "--k", "2", "--theta", "4"],
    ])
    def test_out_of_domain_argument_exit_2(self, meshes, capsys, argv):
        code = main([a.format(disk=meshes / "disk.obj") for a in argv])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["analyze", "{root}/a.ply", "{root}/a.ply"],
        ["param", "{root}/a.stl"],
    ])
    def test_unsupported_input_extension_exit_2(self, tmp_path, capsys, argv):
        code = main([a.format(root=tmp_path) for a in argv])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'a.'}")
        assert "('obj', 'off')" in err

    @pytest.mark.parametrize("text, code, message", [
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\n", 2,
         "{path}:4: bad face index '99999999999999999999'"),
        ("v 0 0 0\nv 0 1 nan\nv 1 0 0\nf 1 2 3\n", 3,
         "{path}: vertex 1 has a non-finite coordinate"),
        ("v 0 0 0\nv 1e-6 0 0\nv 2e-6 0 1e-12\nf 1 2 3\n", 3,
         "{path}: face 0 is degenerate (area 0.000e+00 <= 4.000e-24)"),
    ], ids=["oversized-index", "non-finite-vertex", "collinear-in-xy"])
    def test_malformed_mesh_named_in_one_line(self, tmp_path, capsys, text, code, message):
        path = tmp_path / "bad.obj"
        path.write_text(text)
        assert main(["analyze", str(path), str(path)]) == code
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


    def test_degenerate_target_names_file_and_face(self, meshes, tmp_path, capsys):
        disk = load_mesh(meshes / "disk.obj")
        verts = disk.vertices.copy()
        a, b, c = disk.faces[5]
        verts[c] = 0.25 * verts[a] + 0.75 * verts[b]  # face 5 collapses onto edge ab
        target = tmp_path / "collapsed.obj"
        save_mesh(qcdistort.TriMesh(verts, disk.faces), target)
        assert main(["analyze", str(meshes / "disk.obj"), str(target),
                     "--out", str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {target}: face 5 is degenerate (area ")


class TestMisc:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert "qcdistort" in capsys.readouterr().out

    def test_help_available(self, capsys):
        assert main(["--help"]) == 0
        assert main(["analyze", "--help"]) == 0

    def test_global_flags_after_subcommand(self, meshes, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["analyze", str(meshes / "disk.obj"), str(meshes / "disk.obj"),
                     "--out", str(out), "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_import_leaves_scipy_out(self):
        # analyze needs no scipy; only param's solve imports it
        src = os.path.dirname(os.path.dirname(qcdistort.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        code = ("import sys, qcdistort.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout.strip() == "[]"

    def test_quiet_suppresses_summary(self, meshes, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["--quiet", "analyze", str(meshes / "disk.obj"),
                     str(meshes / "disk.obj"), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
