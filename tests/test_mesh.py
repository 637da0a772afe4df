import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcdistort.mesh
from qcdistort import (
    DegenerateFaceError,
    MeshMap,
    NonManifoldEdgeError,
    ParseError,
    TriMesh,
    ValidationError,
    boundary_loops,
    corner_angles,
    face_areas,
    load_mesh,
    save_mesh,
    tutte_disk,
    validate_mesh,
)
from qcdistort.synth import hemisphere, irregular_disk, tetrahedron, wavy_disk

EQUILATERAL = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def single(verts):
    return TriMesh(np.asarray(verts, dtype=float), [[0, 1, 2]])


def rotation_matrix(ax, ay, az):
    cx, sx = math.cos(ax), math.sin(ax)
    cy, sy = math.cos(ay), math.sin(ay)
    cz, sz = math.cos(az), math.sin(az)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


class TestTriMesh:
    def test_out_of_range_index(self):
        with pytest.raises(ValidationError):
            TriMesh(RIGHT, [[0, 1, 3]])

    def test_repeated_index(self):
        with pytest.raises(ValidationError):
            TriMesh(RIGHT, [[0, 1, 1]])

    def test_immutable(self):
        m = single(RIGHT)
        with pytest.raises(ValueError):
            m.vertices[0, 0] = 5.0

    def test_dimension_inference(self):
        assert single(RIGHT).dimension == 2
        flat3d = single(np.column_stack([RIGHT, np.zeros(3)]))
        assert flat3d.dimension == 2
        assert single([[0, 0, 0], [1, 0, 0], [0, 0, 1]]).dimension == 3

    def test_degenerate_face_rejected_by_validate(self):
        m = TriMesh([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [[0, 1, 2]])
        for _ in range(2):  # a failed verdict is not cached
            with pytest.raises(ValidationError, match="degenerate"):
                validate_mesh(m)

    def test_inconsistent_orientation_rejected(self):
        verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        # both faces traverse edge (1, 2) in the same direction
        m = TriMesh(verts, [[0, 1, 2], [1, 2, 3]])
        for _ in range(2):
            with pytest.raises(ValidationError) as info:
                validate_mesh(m)
            assert str(info.value) == "inconsistent face orientation across edge (1, 2)"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_orientation_error_names_smallest_flipped_half_edge(self, seed):
        mesh = irregular_disk(301)
        faces = mesh.faces.copy()
        flip = np.random.default_rng(seed).choice(len(faces), 4, replace=False)
        faces[flip] = faces[flip][:, [0, 2, 1]]
        # oracle: the smallest directed edge traversed twice the same way on
        # an edge with at most two faces
        directed = Counter()
        undirected = Counter()
        for f in faces.tolist():
            for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
                directed[a, b] += 1
                undirected[min(a, b), max(a, b)] += 1
        i, j = min(e for e, c in directed.items()
                   if c > 1 and undirected[min(e), max(e)] <= 2)
        with pytest.raises(ValidationError) as info:
            validate_mesh(TriMesh(mesh.vertices, faces))
        assert str(info.value) == f"inconsistent face orientation across edge ({i}, {j})"

    def test_validation_runs_once_per_mesh(self, tmp_path, monkeypatch):
        checked = []
        check = qcdistort.mesh._check_mesh
        monkeypatch.setattr(qcdistort.mesh, "_check_mesh",
                            lambda mesh: checked.append(mesh) or check(mesh))
        save_mesh(hemisphere(6), tmp_path / "hemi.obj")
        src = load_mesh(tmp_path / "hemi.obj")
        dst = load_mesh(tmp_path / "hemi.obj")
        assert len(checked) == 2
        MeshMap(src, dst)
        validate_mesh(src)
        assert len(checked) == 2
        flat = tutte_disk(src)
        assert len(checked) == 3 and checked[2] is flat.target


class TestCornerAngles:
    def test_equilateral(self):
        angles = corner_angles(single(EQUILATERAL))
        assert np.allclose(angles, math.pi / 3, atol=1e-12)

    def test_right_triangle(self):
        angles = corner_angles(single(RIGHT))
        assert np.allclose(angles[0], [math.pi / 2, math.pi / 4, math.pi / 4], atol=1e-12)

    def test_squashed_equilateral_matches_arccos_oracle(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 4]])
        angles = corner_angles(single(tri))[0]
        # independent oracle: normalized-dot arccos at each corner
        expected = []
        for k in range(3):
            u = tri[(k + 1) % 3] - tri[k]
            w = tri[(k + 2) % 3] - tri[k]
            expected.append(
                math.acos(np.dot(u, w) / np.linalg.norm(u) / np.linalg.norm(w))
            )
        assert np.allclose(angles, expected, atol=1e-12)
        assert np.allclose(angles, [0.713724, 0.713724, 1.714145], atol=1e-6)

    def test_angle_sums(self):
        mesh = wavy_disk(300)
        sums = corner_angles(mesh).sum(axis=1)
        assert np.abs(sums - math.pi).max() < 1e-9

    def test_degenerate_edge(self):
        m = TriMesh([[0.0, 0.0], [1e-16, 0.0], [0.0, 1.0]], [[0, 1, 2]])
        with pytest.raises(DegenerateFaceError):
            corner_angles(m)


class TestFaceAreas:
    def test_reference_values(self):
        assert face_areas(single(RIGHT))[0] == pytest.approx(0.5, abs=1e-15)
        assert face_areas(single(EQUILATERAL))[0] == pytest.approx(
            math.sqrt(3) / 4, abs=1e-12
        )

    def test_scaling_law(self):
        doubled = single(2.0 * EQUILATERAL)
        assert face_areas(doubled)[0] == pytest.approx(
            4 * face_areas(single(EQUILATERAL))[0], rel=1e-12
        )


@settings(max_examples=40, deadline=None)
@given(
    ax=st.floats(-math.pi, math.pi),
    ay=st.floats(-math.pi, math.pi),
    az=st.floats(-math.pi, math.pi),
    tx=st.floats(-10, 10),
    ty=st.floats(-10, 10),
    tz=st.floats(-10, 10),
)
def test_rigid_invariance(ax, ay, az, tx, ty, tz):
    mesh = wavy_disk(80)
    rot = rotation_matrix(ax, ay, az)
    moved = TriMesh(mesh.vertices @ rot.T + np.array([tx, ty, tz]), mesh.faces)
    assert np.abs(corner_angles(moved) - corner_angles(mesh)).max() < 1e-9
    assert np.abs(face_areas(moved) - face_areas(mesh)).max() < 1e-9


class TestBoundaryLoops:
    def test_single_triangle(self):
        loops = boundary_loops(single(RIGHT))
        assert len(loops) == 1
        assert sorted(loops[0]) == [0, 1, 2]

    def test_closed_mesh(self):
        assert boundary_loops(tetrahedron()) == []

    def test_two_triangles(self):
        m = TriMesh(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            [[0, 1, 2], [1, 3, 2]],
        )
        loops = boundary_loops(m)
        assert len(loops) == 1
        loop = loops[0]
        assert sorted(loop) == [0, 1, 2, 3]
        # oracle: chain the edges that belong to exactly one face
        edge_faces = {}
        for f in m.faces:
            for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
                edge_faces[frozenset((int(a), int(b)))] = (
                    edge_faces.get(frozenset((int(a), int(b))), 0) + 1
                )
        border = {e for e, c in edge_faces.items() if c == 1}
        loop_edges = {
            frozenset((loop[i], loop[(i + 1) % len(loop)])) for i in range(len(loop))
        }
        assert loop_edges == border

    def test_non_manifold_edge(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]]
        m = TriMesh(verts, [[2, 1, 0], [0, 1, 3], [0, 1, 4]])
        with pytest.raises(NonManifoldEdgeError) as info:
            boundary_loops(m)
        assert str(info.value) == "edge (0, 1) is shared by 3 faces"


class TestFileIO:
    def test_load_minimal_obj(self, tmp_path):
        path = tmp_path / "tri.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        mesh = load_mesh(path)
        assert mesh.n_vertices == 3
        assert mesh.n_faces == 1

    def test_obj_repeated_index(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 2\n")
        with pytest.raises(ValidationError):
            load_mesh(path)

    def test_obj_quad_fan(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text(
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
        )
        mesh = load_mesh(path)
        assert mesh.faces.tolist() == [[0, 1, 2], [0, 2, 3]]

    def test_obj_slash_indices(self, tmp_path):
        path = tmp_path / "tex.obj"
        path.write_text(
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nvt 0 0\nvn 0 0 1\nf 1/1/1 2/1/1 3/1/1\n"
        )
        assert load_mesh(path).n_faces == 1

    def test_obj_malformed_vertex(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 zero\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        with pytest.raises(ParseError, match="bad.obj:1"):
            load_mesh(path)

    def test_obj_zero_index(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
        with pytest.raises(ParseError):
            load_mesh(path)

    def test_off_roundtrip(self, tmp_path):
        mesh = wavy_disk(120)
        path = tmp_path / "m.off"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.faces, mesh.faces)

    def test_obj_roundtrip_exact(self, tmp_path):
        mesh = wavy_disk(150)
        path = tmp_path / "m.obj"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.faces, mesh.faces)

    def test_save_2d_writes_zero_z(self, tmp_path):
        mesh = single(RIGHT)
        path = tmp_path / "flat.obj"
        save_mesh(mesh, path)
        first = path.read_text().splitlines()[0]
        assert first == "v 0 0 0"
        back = load_mesh(path)
        assert back.dimension == 2
        assert np.array_equal(back.vertices[:, :2], mesh.vertices)

    def test_off_header_errors(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        with pytest.raises(ParseError, match="OFF"):
            load_mesh(path)

    def test_off_counts_on_header_line(self, tmp_path):
        path = tmp_path / "inline.off"
        path.write_text("OFF 3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        mesh = load_mesh(path)
        assert mesh.n_vertices == 3 and mesh.n_faces == 1

    def test_off_with_comments_and_quads(self, tmp_path):
        path = tmp_path / "quad.off"
        path.write_text(
            "OFF\n# a comment\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
        )
        mesh = load_mesh(path)
        assert mesh.faces.tolist() == [[0, 1, 2], [0, 2, 3]]

    def test_off_truncated(self, tmp_path):
        path = tmp_path / "trunc.off"
        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n")
        with pytest.raises(ParseError, match="unexpected end"):
            load_mesh(path)

    def test_explicit_format_override(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        assert load_mesh(path, format="obj").n_faces == 1

    def test_ply_export_contents(self, tmp_path):
        path = tmp_path / "m.ply"
        save_mesh(single(RIGHT), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "ply"
        assert "element vertex 3" in lines
        assert "element face 1" in lines
        assert lines[-1] == "3 0 1 2"

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            save_mesh(single(RIGHT), tmp_path / "missing" / "m.obj")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            save_mesh(single(RIGHT), tmp_path / "m.stl")
