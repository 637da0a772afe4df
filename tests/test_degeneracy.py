"""The one degeneracy policy: a face whose area is at or below
``1e-12 * diag**2`` fails validation, and every face that passes gives
finite fields.  Faces just above and just below the threshold, in each
vertex layout the package reads (2 columns, 3 columns with every |z| at most
1e-12 times the bounding-box diagonal, 3D).  On a map's target the same test
is a fold verdict: collapsed target faces are folded, without a warning."""

import warnings

import numpy as np
import pytest

from qcdistort import (
    DegenerateFaceError,
    MeshMap,
    TriMesh,
    corner_angles,
    corner_distortion,
    face_areas,
    face_beltrami,
    load_mesh,
    save_mesh,
    summarize,
    validate_mesh,
)
from qcdistort.cli import main
from qcdistort.mesh import _pose
from qcdistort.parameterize import _edge_weights
from qcdistort.synth import bumpy_disk, irregular_disk

LAYOUTS = ["2-column", "3-column-planar", "3d"]
ABOVE, BELOW = 1 + 1e-6, 1 - 1e-6


def corners(layout, h):
    """Corners A, B, C of a face of height h over AB, and D of a wide face."""
    if layout == "2-column":
        return np.array([[0, 0], [1, 0], [0.5, h], [0.5, -0.5]])
    if layout == "3-column-planar":
        # tilted by up to 1e-12 in z, under 1e-12 of the diagonal: planar,
        # but its 3D area is larger
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
        assert np.isfinite(_edge_weights(mesh, "cotangent")).all()
        one = near_threshold(layout, ABOVE, n_faces=1)
        field = face_beltrami(MeshMap(one, similar_target(one)))
        assert np.isfinite(field.mu).all() and not field.folded.any()

    def test_failing_mesh_raises_degenerate_face(self, layout):
        mesh = near_threshold(layout, BELOW)
        for check in (validate_mesh, corner_angles):
            with pytest.raises(DegenerateFaceError) as info:
                check(mesh)
            assert info.value.face == 1
            assert str(info.value).startswith("face 1 is degenerate (area ")
        one = near_threshold(layout, BELOW, n_faces=1)
        with pytest.raises(DegenerateFaceError) as info:
            MeshMap(one, similar_target(one))
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
    # planar (|z| <= 1e-12 times the diagonal 2e-6) and collinear in xy
    path = tmp_path / "thin.obj"
    path.write_text("v 0 0 0\nv 1e-6 0 0\nv 2e-6 0 1e-19\nf 1 2 3\n")
    with pytest.raises(DegenerateFaceError) as info:
        load_mesh(path)
    assert info.value.face == 0
    assert str(info.value) == f"{path}: face 0 is degenerate (area 0.000e+00 <= 4.000e-24)"


def test_thin_3d_triangle_is_read_in_3d(tmp_path):
    # a z of 1e-12 is 5e-7 of this triangle's diagonal, so it is a 3D face
    # of area 5e-19, far above its threshold 4e-24
    path = tmp_path / "thin.obj"
    path.write_text("v 0 0 0\nv 1e-6 0 0\nv 2e-6 0 1e-12\nf 1 2 3\n")
    assert load_mesh(path).dimension == 3
    assert main(["analyze", str(path), str(path), "--out", str(tmp_path / "r.json"),
                 "--quiet"]) == 0


@pytest.mark.parametrize("surface", [irregular_disk, bumpy_disk], ids=["planar", "3d"])
def test_collapsed_target_faces_are_folded(surface):
    """150 maps of one source, each with one face's third corner moved onto the opposite
    edge at a random ratio, onto the first corner, or 1e-9 of the edge away from it.
    Rounding leaves ``ad - bc > 0`` on many such faces; the area test folds every one."""
    source = surface(300)
    rng = np.random.default_rng(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, f in enumerate(rng.choice(source.n_faces, 150, replace=False)):
            a, b, c = source.faces[f]
            verts = source.vertices.copy()
            edge = verts[b] - verts[a]
            verts[c] = verts[a] + (rng.uniform(), 0.0, 1e-9)[i % 3] * edge
            report = summarize(MeshMap(source, TriMesh(verts, source.faces)))
            assert report.beltrami.folded[f], (i, f)
            assert np.isnan(report.beltrami.dilatation[f]) and np.isnan(report.beltrami.eps_mu[f])
            assert report.bound_violations == 0
            assert np.isfinite(report.angular.corner).all()


@pytest.mark.parametrize("dim", [2, 3])
def test_target_with_coincident_corners_folds_without_warning(dim):
    """A target face whose corners 0 and 1 coincide (its corner-0 edge has length 0), or
    all three: folded, with finite corner values and no warning.  In 3D its flattening has
    no direction, so its frame terms, ``mu`` and ``abs_mu`` are NaN; in the plane ``mu`` is
    finite until all three corners coincide, where it is 0 / 0."""
    corners = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.5], [0.0, 1.0, 0.25], [1.0, 1.0, 0.0]])
    source = TriMesh(corners[:, :dim], [[0, 1, 2], [1, 3, 2]])
    assert source.dimension == dim
    for moved in ([1], [1, 2]):
        verts = source.vertices.copy()
        verts[moved] = verts[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = face_beltrami(MeshMap(source, TriMesh(verts, source.faces)))
            corner = corner_distortion(MeshMap(source, TriMesh(verts, source.faces))).corner
        assert field.folded[0] and np.isnan(field.dilatation[0]) and np.isnan(field.eps_mu[0])
        assert np.isfinite(corner).all()
        assert np.isnan(field.abs_mu[0]) == (dim == 3 or moved == [1, 2])
    zero = [np.zeros(1)] * dim
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        l1, y1, x2, y2 = _pose(zero, [np.ones(1)] * dim, np.zeros(1))
    assert l1.tolist() == [0.0] and np.isnan(x2).all() and np.isnan(y2).all()
