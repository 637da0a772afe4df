"""The one degeneracy policy: a face whose area is at or below
``1e-12 * diag**2`` fails validation, and every face that passes gives
finite fields.  Faces just above and just below the threshold, in each
vertex layout the package reads (2 columns, 3 columns with |z| <= 1e-12,
3D)."""

import numpy as np
import pytest

from qcdistort import (
    DegenerateFaceError,
    MeshMap,
    TriMesh,
    affine_coefficients,
    corner_angles,
    corner_distortion,
    face_areas,
    face_beltrami,
    flatten_triangle,
    load_mesh,
    save_mesh,
    validate_mesh,
)
from qcdistort.cli import main
from qcdistort.parameterize import _weight_matrix

LAYOUTS = ["2-column", "3-column-planar", "3d"]
ABOVE, BELOW = 1 + 1e-6, 1 - 1e-6


def corners(layout, h):
    """Corners A, B, C of a face of height h over AB, and D of a wide face."""
    if layout == "2-column":
        return np.array([[0, 0], [1, 0], [0.5, h], [0.5, -0.5]])
    if layout == "3-column-planar":
        # tilted by up to 1e-12 in z: planar, but its 3D area is larger
        return np.array([[0, 0, 0], [1, 0, 1e-12], [0.5, h, -1e-12], [0.5, -0.5, 0]])
    return np.array([[0, 0, 0], [1, 0, 1], [0.5, h, 0.5], [0.5, -0.5, 0.5]])


def near_threshold(layout, ratio, n_faces=2):
    """A mesh whose last face (ABC) has ``ratio`` times its threshold area.

    With two faces, face 0 is the wide face ADB next to it.
    """
    faces = [[0, 1, 2]] if n_faces == 1 else [[0, 3, 1], [0, 1, 2]]
    n = 3 if n_faces == 1 else 4
    per_height = face_areas(TriMesh(corners(layout, 1.0)[:n], faces))[-1]
    eps = TriMesh(corners(layout, 0.0)[:n], faces).area_epsilon
    mesh = TriMesh(corners(layout, ratio * eps / per_height)[:n], faces)
    assert face_areas(mesh)[-1] / mesh.area_epsilon == pytest.approx(ratio, rel=1e-9)
    assert mesh.dimension == (3 if layout == "3d" else 2)
    return mesh


def similar_target(mesh):
    """The mesh scaled by 2 in the coordinates its faces are read in."""
    verts = mesh.vertices.copy()
    verts[:, :mesh.dimension] *= 2.0
    return TriMesh(verts, mesh.faces)


@pytest.mark.parametrize("layout", LAYOUTS)
class TestNearThreshold:
    def test_passing_mesh_gives_finite_fields(self, layout):
        mesh = near_threshold(layout, ABOVE)
        validate_mesh(mesh)
        mapping = MeshMap(mesh, similar_target(mesh))
        field = face_beltrami(mapping)
        assert np.isfinite(field.mu).all() and np.isfinite(field.eps_mu).all()
        assert not field.folded.any()
        assert np.isfinite(corner_distortion(mapping).corner).all()
        assert np.isfinite(corner_angles(mesh)).all()
        assert np.isfinite(_weight_matrix(mesh, "cotangent").data).all()
        one = near_threshold(layout, ABOVE, n_faces=1)
        assert np.isfinite(flatten_triangle(*one.vertices)).all()
        if layout != "3d":
            xy = one.vertices[:, :2]
            m = affine_coefficients(xy, 2.0 * xy)
            assert np.isfinite([m.a, m.b, m.c, m.d, m.p, m.q]).all()

    def test_failing_mesh_raises_degenerate_face(self, layout):
        mesh = near_threshold(layout, BELOW)
        for check in (validate_mesh, corner_angles):
            with pytest.raises(DegenerateFaceError) as info:
                check(mesh)
            assert info.value.face == 1
            assert str(info.value).startswith("face 1 is degenerate (area ")
        one = near_threshold(layout, BELOW, n_faces=1)
        calls = [lambda: flatten_triangle(*one.vertices)]
        if layout != "3d":
            xy = one.vertices[:, :2]
            calls.append(lambda: affine_coefficients(xy, 2.0 * xy))
        for call in calls:
            with pytest.raises(DegenerateFaceError) as info:
                call()
            assert info.value.face == 0

    @pytest.mark.parametrize("ratio, code", [(ABOVE, 0), (BELOW, 3)])
    def test_cli_verdict(self, layout, ratio, code, tmp_path, capsys):
        mesh = near_threshold(layout, ratio)
        src, dst = tmp_path / "src.obj", tmp_path / "dst.obj"
        save_mesh(mesh, src)
        save_mesh(similar_target(mesh), dst)
        assert main(["analyze", str(src), str(dst), "--out", str(tmp_path / "r.json"),
                     "--quiet"]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith(f"error: {src}: face 1 is degenerate (area ")
            assert err.count("\n") == 1
        else:
            assert err == ""


def test_collinear_in_xy_fails_at_load(tmp_path):
    # planar (|z| <= 1e-12) and collinear in xy, but of 3D area 5e-19, far
    # above its threshold 4e-24: validation used to pass it and
    # face_beltrami to fail on it
    path = tmp_path / "thin.obj"
    path.write_text("v 0 0 0\nv 1e-6 0 0\nv 2e-6 0 1e-12\nf 1 2 3\n")
    with pytest.raises(DegenerateFaceError) as info:
        load_mesh(path)
    assert info.value.face == 0
    assert str(info.value) == f"{path}: face 0 is degenerate (area 0.000e+00 <= 4.000e-24)"
