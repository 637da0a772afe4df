import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcdistort
import qcdistort.cli
import qcdistort.mesh
from qcdistort import (
    MeshMap,
    export_colored_mesh,
    export_report,
    load_mesh,
    parameterize,
    report_json,
    save_mesh,
    summarize,
    theory,
)
from qcdistort.cli import main
from qcdistort.synth import (
    flat_disk,
    hemisphere,
    irregular_disk,
    perturbed_target,
    scaled_map_target,
    tetrahedron,
    wavy_disk,
)

from mesh_text import MUTATIONS, mutate


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

    def test_exports_split_into_shares_match_one_share_writers(self, tmp_path, monkeypatch):
        """A CLI analyze whose CSV and PLY are each at least two shares, run
        with warnings as errors: it prints nothing, leaves no child process
        behind (an unclosed file or a running worker would show) and writes
        the bytes of the one-share writers in this process."""
        src = irregular_disk(8_500)
        assert src.n_faces >= 2 * qcdistort.mesh._SHARE_MIN_ROWS
        save_mesh(src, tmp_path / "src.obj")
        save_mesh(perturbed_target(src, np.random.default_rng(3)), tmp_path / "dst.off")
        argv = ["analyze", "src.obj", "dst.off", "--out", "r.json", "--csv", "f.csv",
                "--ply-out", "c.ply", "--quiet"]
        code = (f"import os, sys\nfrom qcdistort.cli import main\ncode = main({argv!r})\n"
                "try:\n    os.waitpid(-1, os.WNOHANG)\n    print('a child process is left')\n"
                "except ChildProcessError:\n    pass\nsys.exit(code)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(qcdistort.__file__)),
             os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
        monkeypatch.setattr(qcdistort.mesh, "_usable_cpus", lambda: 1)
        mapping = MeshMap(load_mesh(tmp_path / "src.obj"), load_mesh(tmp_path / "dst.off"))
        report = summarize(mapping)
        export_report(report, tmp_path / "one.csv", "csv")
        export_colored_mesh(mapping, "abs_mu", tmp_path / "one.ply",
                            beltrami=report.beltrami, angular=report.angular)
        for name, one in [("f.csv", "one.csv"), ("c.ply", "one.ply")]:
            assert (tmp_path / name).read_bytes() == (tmp_path / one).read_bytes()

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

    def test_vertex_only_obj_reports_zero_faces(self, tmp_path, capsys):
        path = tmp_path / "points.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n")
        assert main(["analyze", str(path), str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["face_count"] == 0 and data["bound_violations"] == 0
        assert data["stats"]["abs_mu"] is None

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
        # a solve that returns NaN is caught by the residual check
        monkeypatch.setattr(parameterize, "_multifrontal_solve",
                            lambda rows, cols, vals, b, points: np.full(b.shape, np.nan))
        code = main(["param", str(meshes / "hemi.obj"), "-o", str(tmp_path / "f.obj")])
        assert code == 1
        assert "residual" in capsys.readouterr().err

    def test_singular_solve_exit_1(self, meshes, tmp_path, capsys, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(parameterize, "_multifrontal_solve", singular)
        code = main(["param", str(meshes / "hemi.obj"), "-o", str(tmp_path / "f.obj")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == ["error: linear solve failed: Singular matrix"]
        assert not (tmp_path / "f.obj").exists()


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

    @pytest.mark.parametrize("argv, name", [
        (["--k", "2"], "max half-angle deviation K=2"),
        (["--k", "2", "--theta", "1.0472"], "extremal bisector K=2 theta=1.0472"),
    ], ids=["k", "k-theta"])
    def test_single_case_json_is_the_suite_check(self, capsys, argv, name):
        code = main(["theory", "--grid", "2000", "--json", *argv])
        assert code == 0
        (check,) = json.loads(capsys.readouterr().out)
        assert check["name"] == name and check["passed"]
        assert {"formula", "grid"} <= check["params"].keys()

    @pytest.mark.parametrize("argv", [[], ["--k", "2"], ["--k", "2", "--theta", "1.0472"]],
                             ids=["default", "k", "k-theta"])
    def test_quiet_prints_nothing(self, capsys, argv):
        assert main(["--quiet", "theory", "--grid", "2000", *argv]) == 0
        assert capsys.readouterr() == ("", "")

    def test_undistorted_wedge_passes(self, capsys):
        # at K = 1 every wedge orientation is extremal, so the sweep is flat
        assert main(["theory", "--k", "1", "--theta", "1"]) == 0

    @pytest.mark.parametrize("argv", [
        ["--k", "1.0000000001", "--theta", "1"],
        ["--k", "1e308", "--theta", "1"],
        ["--k", "1e16"],
    ], ids=["flat-near-1", "flat-huge-k", "mu-rounds-to-1"])
    def test_correct_formulas_pass_at_extreme_k(self, capsys, argv):
        # the sweep's argmax is arbitrary where it is flat to double
        # precision, and (K-1)/(K+1) rounds to 1 from K = 1e16 on
        assert main(["--quiet", "theory", *argv]) == 0
        assert capsys.readouterr() == ("", "")

    def test_failed_line_names_a_formula_mismatch(self, capsys, monkeypatch):
        real = theory.max_distortion_for_angle
        monkeypatch.setattr(theory, "max_distortion_for_angle",
                            lambda theta, k: (real(theta, k)[0] + 1e-3, real(theta, k)[1]))
        assert main(["--quiet", "theory", "--k", "2", "--theta", "1"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert "theta=1: observed 1.0" in line and "> tol 1e-05;" in line

    def test_right_value_on_the_wrong_wedge_fails(self, capsys, monkeypatch):
        real = theory.max_distortion_for_angle

        def other_wedge(theta, k):
            delta, b = real(theta, k)
            b_max, b_min = theory.extremal_bisectors(theta)
            return delta, b_min if b == b_max else b_max

        monkeypatch.setattr(theory, "max_distortion_for_angle", other_wedge)
        assert main(["--quiet", "theory", "--k", "2", "--theta", "1"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("FAILED: extremal bisector K=2 theta=1: observed 1.9")
        assert "'dilatation': 2.0, 'theta': 1.0," in line


class TestErrorExitCodes:
    @pytest.mark.parametrize("argv", [
        ["analyze", "{disk}", "{disk}", "--bins", "0"],
        ["theory", "--k", "0.5"],
        ["theory", "--k", "2", "--theta", "4"],
        ["theory", "--k", "nan"],
        ["theory", "--k", "nan", "--theta", "1"],
        ["theory", "--k", "inf"],
        ["theory", "--k", "inf", "--theta", "1"],
        ["theory", "--seed", "-1"],
    ])
    @pytest.mark.filterwarnings("error")
    def test_out_of_domain_argument_exit_2(self, meshes, capsys, argv):
        code = main([a.format(disk=meshes / "disk.obj") for a in argv])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_bins_checked_on_an_all_folded_map(self, meshes, tmp_path, capsys):
        disk = flat_disk(6)
        mirrored = tmp_path / "mirrored.obj"
        save_mesh(qcdistort.TriMesh(disk.vertices * [1.0, -1.0], disk.faces), mirrored)
        argv = ["analyze", str(meshes / "other.obj"), str(mirrored), "--json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["stats"]["abs_mu"] is None
        assert main([*argv, "--bins", "0"]) == 2
        assert capsys.readouterr().err == "error: bins must be >= 1\n"

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "{disk}", "{half}", "--bins", "1000000000000"], "bin_count 1000000000000"),
        (["theory", "--grid", "100000000000"], "grid_size 100000000000"),
        (["theory", "--k", "2", "--grid", "100000000000"], "grid_size 100000000000"),
    ])
    def test_array_too_large_to_allocate_exit_2(self, meshes, tmp_path, argv, message):
        # a child whose address space is capped at 1 GiB: no allocation here can reach the host
        resource = pytest.importorskip("resource")
        cap = 1 << 30
        argv = [a.format(disk=meshes / "disk.obj", half=meshes / "disk_half.obj") for a in argv]
        src = os.path.dirname(os.path.dirname(qcdistort.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "qcdistort.cli", *argv], env=env, cwd=tmp_path,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert done.stderr == f"error: {message} is too large: its arrays cannot be allocated\n"

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
        ("v 0 0 0\nv 1e-6 0 0\nv 2e-6 0 1e-19\nf 1 2 3\n", 3,
         "{path}: face 0 is degenerate (area 0.000e+00 <= 4.000e-24)"),
    ], ids=["oversized-index", "non-finite-vertex", "collinear-in-xy"])
    def test_malformed_mesh_named_in_one_line(self, tmp_path, capsys, text, code, message):
        path = tmp_path / "bad.obj"
        path.write_text(text)
        assert main(["analyze", str(path), str(path)]) == code
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


    @pytest.mark.parametrize("target", ["valid", "unparseable"])
    @pytest.mark.parametrize("text, message", [
        ("v 0 0 0\nv 1e-6 0 0\nv 2e-6 0 1e-19\nf 1 2 3\n",
         "face 0 is degenerate (area 0.000e+00 <= 4.000e-24)"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3\nf 2 3 4\n",
         "inconsistent face orientation across edge (1, 2)"),
    ], ids=["degenerate", "misoriented"])
    def test_invalid_source_is_named_before_the_target_is_read(self, tmp_path, capsys,
                                                               text, message, target):
        source, other = tmp_path / "src.obj", tmp_path / "dst.obj"
        source.write_text(text)
        other.write_text(text if target == "valid" else "v 0 0 0\nf 1 2 x\n")
        assert main(["analyze", str(source), str(other)]) == 3
        assert capsys.readouterr().err == f"error: {source}: {message}\n"

    def test_analyze_reads_each_file_once(self, meshes, monkeypatch):
        read, real = [], qcdistort.cli.load_mesh
        monkeypatch.setattr(qcdistort.cli, "load_mesh",
                            lambda path: read.append(path) or real(path))
        source, target = str(meshes / "disk.obj"), str(meshes / "disk_half.obj")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["analyze", source, target, "--json"]) == 0
        assert read == [source, target]

    @pytest.mark.filterwarnings("error")
    def test_collapsed_target_face_folds_and_exits_0(self, tmp_path, capsys):
        disk = flat_disk(6)
        verts = disk.vertices.copy()
        a, b, c = disk.faces[0]
        verts[c] = 0.5 * (verts[a] + verts[b])  # face 0 collapses onto edge ab
        source, target = tmp_path / "disk.obj", tmp_path / "collapsed.obj"
        save_mesh(disk, source)
        save_mesh(qcdistort.TriMesh(verts, disk.faces), target)
        report, table = tmp_path / "r.json", tmp_path / "r.csv"
        assert main(["analyze", str(source), str(target), "--out", str(report),
                     "--csv", str(table), "--quiet"]) == 0
        folded = json.loads(report.read_text())["folded_count"]
        assert folded >= 1 and json.loads(report.read_text())["bound_violations"] == 0
        assert capsys.readouterr().err == (f"warning: {folded} folded faces "
                                           "(excluded from statistics)\n")
        row = table.read_text().splitlines()[1].split(",")
        assert row[0] == "0" and row[2:4] == ["", ""] and row[-1] == "true"
        assert all(math.isfinite(float(x)) for x in row[4:8])
        # the same file as a source is an error that names it and the face
        assert main(["analyze", str(target), str(source), "--out", str(report)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {target}: face 0 is degenerate (area ")
        # the library path folds as analyze does: the same report apart from meta
        assert main(["analyze", str(source), str(target), "--json"]) == 0
        cli = json.loads(capsys.readouterr().out)
        mapping = MeshMap(load_mesh(source), load_mesh(target))
        lib = json.loads(report_json(summarize(mapping)))
        assert lib["folded_count"] == cli["folded_count"] == folded
        del lib["meta"], cli["meta"]
        assert lib == cli


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

    def test_import_leaves_scipy_out(self, meshes, tmp_path):
        # no command imports scipy: only synth's Delaunay needs it
        src = os.path.dirname(os.path.dirname(qcdistort.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        scipy_modules = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        code = f"import sys, qcdistort.cli; {scipy_modules}"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout.strip() == "[]"
        # a whole param --analyze run, both weights
        for weights in ("uniform", "cotangent"):
            argv = ["param", str(meshes / "hemi.obj"), "-o", str(tmp_path / "flat.obj"),
                    "--weights", weights, "--analyze", "--quiet"]
            code = (f"import sys; from qcdistort.cli import main; code = main({argv!r}); "
                    f"{scipy_modules}; sys.exit(code)")
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=60, check=True)
            assert done.stdout.strip() == "[]"
            assert (tmp_path / "flat.obj.report.json").exists()

    @pytest.mark.parametrize("weights", ["uniform", "cotangent"])
    def test_param_leaves_numpy_ma_out(self, meshes, tmp_path, weights):
        # np.unique without return_* flags asks np.ma.is_masked, importing numpy.ma
        src = os.path.dirname(os.path.dirname(qcdistort.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        argv = ["param", str(meshes / "hemi.obj"), "-o", str(tmp_path / "flat.obj"),
                "--weights", weights, "--analyze", "--quiet"]
        code = (f"import sys; from qcdistort.cli import main; code = main({argv!r}); "
                f"print('numpy.ma' in sys.modules); sys.exit(code)")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout.strip() == "False"
        assert (tmp_path / "flat.obj.report.json").exists()

    def test_synth_without_scipy_names_the_extra(self):
        src = os.path.dirname(os.path.dirname(qcdistort.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        # a None entry in sys.modules makes every import of scipy fail
        code = ("import sys; sys.modules['scipy'] = None\n"
                "try:\n    import qcdistort.synth\n"
                "except ImportError as exc:\n    print(exc)")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout.strip() == ("qcdistort.synth needs scipy: "
                                       "pip install 'qcdistort[synth]'")

    def test_quiet_suppresses_summary(self, meshes, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["--quiet", "analyze", str(meshes / "disk.obj"),
                     str(meshes / "disk.obj"), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""


_FILE = r"\S+\.(?:obj|off)"
# the exit code and the message of each error the analyze and param commands
# can end in, one pattern per raise site; every message names the file and
# line, a face, an edge, a vertex or the solve
ERROR_MESSAGES = [
    (2, rf"{_FILE}:\d+: bad vertex coordinate"),
    (2, rf"{_FILE}:\d+: vertex needs at least 2 coordinates"),
    (2, rf"{_FILE}:\d+: bad face index '.*'"),
    (2, rf"{_FILE}:\d+: face indices are 1-based"),
    (2, rf"{_FILE}:\d+: face needs at least 3 vertices"),
    (2, rf"{_FILE}:\d+: missing OFF header"),
    (2, rf"{_FILE}:\d+: bad (?:vertex count|face count|edge count|coordinate|face size) '.*'"),
    (2, rf"{_FILE}:\d+: unexpected end of file \(wanted (?:vertex count|face count|edge count"
        r"|coordinate|face size|face index)\)"),
    (2, rf"{_FILE}:\d+: unexpected end of line \(wanted face index\)"),
    (2, rf"{_FILE}: negative element count in header"),
    (3, rf"{_FILE}: vertex \d+ has a non-finite coordinate"),
    (3, rf"{_FILE}: face \d+ has an out-of-range vertex index"),
    (3, rf"{_FILE}: face \d+ has a repeated vertex index"),
    (3, rf"{_FILE}: face \d+ is degenerate \(area \S+ <= \S+\)"),
    (3, rf"{_FILE}: inconsistent face orientation across edge \(\d+, \d+\)"),
    (3, r"connectivity mismatch: vertex counts differ \(\d+ vs \d+\)"),
    (3, r"connectivity mismatch: (?:face counts differ \(\d+ vs \d+\)"
        r"|face \d+ differs \(\[\d+, \d+, \d+\] vs \[\d+, \d+, \d+\]\))"),
    (3, r"edge \(\d+, \d+\) is shared by \d+ faces"),
    (3, r"boundary edges do not form closed loops; check face orientation"),
    (3, r"expected exactly one boundary loop, found \d+"),
    (3, r"Euler characteristic is -?\d+, expected 1 for a disk"),
    (1, r"linear-system backward error \S+ exceeds threshold \S+ \(residual \S+\)"),
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for fmt in ("obj", "off"):
        save_mesh(wavy_disk(60), root / f"clean.{fmt}")
    return root


@pytest.mark.parametrize("fmt", ["obj", "off"])
@settings(max_examples=60, deadline=None)
@given(mutations=st.lists(
    st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 10**6),
              st.integers(0, 3), st.integers(0, 10**6)),
    min_size=1, max_size=3,
))
def test_mutated_input_ends_in_report_or_named_error(fuzz_dir, fmt, mutations):
    """Every mutated input ends in exit 0 or in one ``error:`` line naming
    what failed, under the exit code of its error type, never a traceback."""
    clean = fuzz_dir / f"clean.{fmt}"
    mutated = fuzz_dir / f"mutated.{fmt}"
    mutated.write_bytes(mutate(clean.read_text(), mutations))
    commands = [["analyze", str(clean), str(mutated), "--out", str(fuzz_dir / "r.json")]]
    commands += [["param", str(mutated), "-o", str(fuzz_dir / "flat.obj"), "--weights",
                  weights, "--analyze"] for weights in ("uniform", "cotangent")]
    for argv in commands:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--quiet"])
        assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue()
        if code == 0:
            continue
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
        assert len(errors) == 1, err.getvalue()
        message = errors[0][len("error: "):]
        assert any(re.fullmatch(pattern, message) and code == expected
                   for expected, pattern in ERROR_MESSAGES), (code, message)
