"""The public names: ``qcdistort.__all__`` is pinned, so that adding or
removing one is a visible change, and the README's library examples import
only exported names."""

import ast
import pathlib
import re

import qcdistort

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "AngularDistortionField", "BeltramiField", "DegenerateFaceError", "DegenerateModelError",
    "DistortionReport", "DomainError", "EmptyInputError", "LinearModel", "MeshMap",
    "NonManifoldEdgeError", "ParamConfig", "ParseError", "PrincipalStretch", "QcdistortError",
    "SolverError", "TopologyError", "TriMesh", "ValidationError", "angular", "beltrami",
    "boundary_loops", "brute_force_max_distortion", "corner_angles", "corner_distortion",
    "dilatation", "epsilon_mu", "errors", "export_colored_mesh", "export_report",
    "extremal_bisectors", "face_areas", "face_beltrami", "histogram", "load_mesh",
    "max_distortion_for_angle", "max_half_angle_deviation", "mesh", "parameterize",
    "principal_stretch", "report", "report_json", "report_to_dict", "run_all_checks",
    "save_mesh", "summarize", "theory", "tutte_disk", "validate_mesh",
]


def test_public_names_are_pinned():
    assert sorted(qcdistort.__all__) == PUBLIC


def test_readme_library_examples_import_exported_names():
    section = README.read_text(encoding="utf-8").split("\n## Library\n")[1].split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    imported = [alias.name for block in blocks for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "qcdistort"
                for alias in node.names]
    assert len(blocks) == 2 and {"MeshMap", "TriMesh", "face_beltrami"} <= set(imported)
    assert sorted(set(imported) - set(qcdistort.__all__)) == []
