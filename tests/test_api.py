"""The public names: ``qcdistort.__all__`` is pinned, so that adding or
removing one is a visible change, and the README's library examples import
only exported names and run as written."""

import ast
import importlib
import pathlib
import re
import types

import numpy as np

import qcdistort
from qcdistort import save_mesh
from qcdistort.synth import hemisphere, irregular_disk, perturbed_target

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "AngularDistortionField", "BeltramiField", "DegenerateFaceError", "DegenerateModelError",
    "DistortionReport", "DomainError", "EmptyInputError", "LinearModel", "MeshMap",
    "NonManifoldEdgeError", "ParamConfig", "ParseError", "PrincipalStretch", "QcdistortError",
    "SolverError", "TopologyError", "TriMesh", "ValidationError", "boundary_loops",
    "brute_force_max_distortion", "corner_angles", "corner_distortion", "dilatation",
    "epsilon_mu", "export_colored_mesh", "export_report", "extremal_bisectors", "face_areas",
    "face_beltrami", "histogram", "load_mesh", "max_distortion_for_angle",
    "max_half_angle_deviation", "principal_stretch", "report_json", "report_to_dict",
    "run_all_checks", "save_mesh", "summarize", "tutte_disk", "validate_mesh",
]


def test_public_names_are_pinned():
    assert sorted(qcdistort.__all__) == PUBLIC


def test_no_public_name_is_a_module():
    assert [name for name in qcdistort.__all__
            if isinstance(getattr(qcdistort, name), types.ModuleType)] == []
    namespace = {}
    exec("from qcdistort import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    # the submodules stay importable by name
    for module in ("angular", "beltrami", "cli", "errors", "mesh", "parameterize", "report",
                   "synth", "theory"):
        importlib.import_module(f"qcdistort.{module}")


def library_blocks() -> list[str]:
    section = README.read_text(encoding="utf-8").split("\n## Library\n")[1].split("\n## ")[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_readme_library_examples_import_exported_names():
    blocks = library_blocks()
    imported = [alias.name for block in blocks for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "qcdistort"
                for alias in node.names]
    assert len(blocks) == 2 and {"MeshMap", "TriMesh", "face_beltrami"} <= set(imported)
    assert sorted(set(imported) - set(qcdistort.__all__)) == []


def test_readme_library_examples_run(tmp_path, monkeypatch, capsys):
    disk = irregular_disk(300)
    save_mesh(disk, tmp_path / "source.obj")
    save_mesh(perturbed_target(disk, np.random.default_rng(0)), tmp_path / "target.obj")
    save_mesh(hemisphere(8), tmp_path / "surface.obj")
    monkeypatch.chdir(tmp_path)
    meshes, one_face = library_blocks()
    exec(meshes, {})
    mean, violations = capsys.readouterr().out.split()
    assert float(mean) > 0 and violations == "0"
    assert (tmp_path / "flat.ply").read_bytes().startswith(b"ply\n")
    exec(one_face, {})
    assert capsys.readouterr().out == "[0.33333333+0.j]\n"
