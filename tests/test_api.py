"""The public names: ``qcdistort.__all__`` is pinned, so that adding or
removing one is a visible change, and the README's library examples import
only exported names and run as written."""

import ast
import importlib
import inspect
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
    "brute_force_max_distortion", "corner_angles", "corner_distortion",
    "export_colored_mesh", "export_report", "extremal_bisectors", "face_areas",
    "face_beltrami", "histogram", "load_mesh", "max_distortion_for_angle",
    "max_half_angle_deviation", "principal_stretch", "report_json", "report_to_dict",
    "run_all_checks", "save_mesh", "summarize", "tutte_disk", "validate_mesh",
]


# The parameter names of every public callable (a dataclass's are its fields), so that
# adding or removing an option is a visible edit here.  None: an error that keeps the
# built-in exception's (*args), which has no signature.
SIGNATURES = {
    "AngularDistortionField": ["corner", "signed_corner", "face_avg"],
    "BeltramiField": ["mu", "abs_mu", "dilatation", "eps_mu", "folded"],
    "DegenerateFaceError": ["message", "face"],
    "DegenerateModelError": None,
    "DistortionReport": ["face_count", "folded_count", "bound_violations", "stats",
                         "histograms", "meta", "beltrami", "angular"],
    "DomainError": None,
    "EmptyInputError": None,
    "LinearModel": ["A", "B"],
    "MeshMap": ["source", "target"],
    "NonManifoldEdgeError": None,
    "ParamConfig": ["weights"],
    "ParseError": None,
    "PrincipalStretch": ["lambda_x", "lambda_y", "max_direction", "image_rotation",
                         "dilatation"],
    "QcdistortError": None,
    "SolverError": None,
    "TopologyError": None,
    "TriMesh": ["vertices", "faces"],
    "ValidationError": None,
    "boundary_loops": ["mesh"],
    "brute_force_max_distortion": ["theta", "dilatation", "grid_size"],
    "corner_angles": ["mesh"],
    "corner_distortion": ["mapping"],
    "export_colored_mesh": ["mapping", "field_name", "path", "beltrami", "angular"],
    "export_report": ["report", "path", "format"],
    "extremal_bisectors": ["theta"],
    "face_areas": ["mesh"],
    "face_beltrami": ["mapping"],
    "histogram": ["values", "bin_count"],
    "load_mesh": ["path", "format"],
    "max_distortion_for_angle": ["theta", "dilatation"],
    "max_half_angle_deviation": ["dilatation"],
    "principal_stretch": ["model"],
    "report_json": ["report"],
    "report_to_dict": ["report"],
    "run_all_checks": ["seed", "grid_size"],
    "save_mesh": ["mesh", "path", "format"],
    "summarize": ["mapping", "bins", "source_path", "target_path"],
    "tutte_disk": ["mesh", "config"],
    "validate_mesh": ["mesh"],
}


def parameter_names(obj):
    try:
        return list(inspect.signature(obj).parameters)
    except ValueError:
        assert issubclass(obj, Exception)
        assert isinstance(obj.__init__, type(Exception.__init__))  # built in, not Python
        return None


def test_public_names_are_pinned():
    assert sorted(qcdistort.__all__) == PUBLIC


def test_public_parameters_are_pinned():
    assert {name: parameter_names(getattr(qcdistort, name))
            for name in qcdistort.__all__} == SIGNATURES


def test_no_public_name_is_a_module():
    assert [name for name in qcdistort.__all__
            if isinstance(getattr(qcdistort, name), types.ModuleType)] == []
    namespace = {}
    exec("from qcdistort import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    readme = " ".join(README.read_text(encoding="utf-8").split())  # the count may wrap a line
    assert f"import *` binds the {len(qcdistort.__all__)} API names" in readme
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
