"""Distortion analysis of piecewise-linear maps between triangle meshes.

Computes per-face Beltrami coefficients and angular-distortion measures of
a mesh map, checks the per-face bound relating them (every corner's angular
distortion is at most 2*arcsin(|mu|) on orientation-preserving faces), and
aggregates the fields into reports, histograms, and color-coded exports.
A Tutte disk embedding is included so the pipeline runs end to end.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .angular import AngularDistortionField, corner_distortion
from .beltrami import BeltramiField, MeshMap, face_beltrami
from .errors import (
    DegenerateFaceError,
    DegenerateModelError,
    DomainError,
    EmptyInputError,
    NonManifoldEdgeError,
    ParseError,
    QcdistortError,
    SolverError,
    TopologyError,
    ValidationError,
)
from .mesh import (
    TriMesh,
    boundary_loops,
    corner_angles,
    face_areas,
    load_mesh,
    save_mesh,
    validate_mesh,
)
from .parameterize import ParamConfig, tutte_disk
from .report import (
    DistortionReport,
    export_colored_mesh,
    export_report,
    histogram,
    report_json,
    report_to_dict,
    summarize,
)
from .theory import (
    LinearModel,
    PrincipalStretch,
    brute_force_max_distortion,
    extremal_bisectors,
    max_distortion_for_angle,
    max_half_angle_deviation,
    principal_stretch,
    run_all_checks,
)

# the API names; the submodules stay importable (qcdistort.mesh, qcdistort.synth, ...)
__all__ = sorted(name for name, value in globals().items()
                 if not (name.startswith("_") or isinstance(value, _ModuleType)))
