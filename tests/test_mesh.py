import functools
import math
import re
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcdistort.mesh
import qcdistort.report
from qcdistort import (
    DegenerateFaceError,
    MeshMap,
    NonManifoldEdgeError,
    ParseError,
    TriMesh,
    ValidationError,
    boundary_loops,
    corner_angles,
    export_colored_mesh,
    face_areas,
    face_beltrami,
    load_mesh,
    save_mesh,
    summarize,
    tutte_disk,
    validate_mesh,
)
from qcdistort.cli import _load_source, main
from qcdistort.synth import (
    hemisphere,
    irregular_disk,
    perturbed_target,
    tetrahedron,
    wavy_disk,
)

from mesh_text import (
    COLORS,
    MUTATIONS,
    ODD_LINES,
    ODD_TOKENS,
    _parse_obj,
    _parse_off,
    exporter_text,
    mutate,
)

EQUILATERAL = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def single(verts):
    return TriMesh(np.asarray(verts, dtype=float), [[0, 1, 2]])


def spy_verdict(monkeypatch, name):
    """The meshes on which the cached ``TriMesh`` verdict ``name`` runs its test, in order."""
    tested, test = [], vars(TriMesh)[name].func
    spy = functools.cached_property(lambda mesh: tested.append(mesh) or test(mesh))
    spy.__set_name__(TriMesh, name)
    monkeypatch.setattr(TriMesh, name, spy)
    return tested


def spy_gathers(monkeypatch):
    """The meshes whose face coordinates ``_face_columns`` gathers, one entry per block, in order."""
    gathered, gather = [], qcdistort.mesh._face_columns
    monkeypatch.setattr(qcdistort.mesh, "_face_columns",
                        lambda mesh, rows: gathered.append(mesh) or gather(mesh, rows))
    return gathered


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

    def test_non_finite_vertex_named(self):
        verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, math.inf], [math.nan, 1.0]]
        with pytest.raises(ValidationError) as info:
            TriMesh(verts, [[0, 1, 2]])
        assert str(info.value) == "vertex 3 has a non-finite coordinate"

    @pytest.mark.parametrize("index", [2.7, math.nan, 2**63 + 5, 2**70, "a"])
    def test_bad_face_index_named(self, index):
        verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        with pytest.raises(ValidationError) as info:  # not a silent truncation, nor a bare error
            TriMesh(verts, [[0, 1, 2], [1, 3, index]])
        assert str(info.value) == "face 1 has a vertex index that is not a 64-bit integer"

    def test_integral_float_indices_accepted(self):
        mesh = TriMesh(RIGHT, np.array([[0.0, 1.0, 2.0]]))
        assert mesh.faces.dtype == np.int64 and mesh.faces.tolist() == [[0, 1, 2]]

    def test_non_numeric_vertex_named(self):
        with pytest.raises(ValidationError) as info:
            TriMesh([[0.0, 0.0], [1.0, 0.0], [0.0, "x"]], [[0, 1, 2]])
        assert str(info.value) == "vertex 2 has a non-numeric coordinate"

    def test_immutable(self):
        m = single(RIGHT)
        with pytest.raises(ValueError):
            m.vertices[0, 0] = 5.0

    def test_dimension_inference(self):
        assert single(RIGHT).dimension == 2
        flat3d = single(np.column_stack([RIGHT, np.zeros(3)]))
        assert flat3d.dimension == 2
        assert single([[0, 0, 0], [1, 0, 0], [0, 0, 1]]).dimension == 3

    @pytest.mark.parametrize("scale", [1e-300, 1e-13, 1.0, 1e12, 1e300])
    def test_dimension_is_unit_free(self, scale):
        # planar means every |z| <= 1e-12 times the bounding-box diagonal
        upright = single(scale * np.array([[0, 0, 0], [1, 0, 0], [0, 0, 1]]))
        tilted = single(scale * np.array([[0, 0, 0], [1, 0, 1e-13], [0, 1, -1e-13]]))
        assert (upright.dimension, tilted.dimension) == (3, 2)

    def test_huge_coordinates_never_overflow(self):
        mesh = single(1e200 * np.array([[0, 0, 0], [1, 0, 0], [0, 1, 1]]))
        assert math.isfinite(mesh.bbox_diagonal)
        with pytest.raises(ValidationError):  # not OverflowError
            validate_mesh(mesh)

    def test_tiny_right_triangle_is_3d(self):
        corners = [[0, 0, 0], [1e-13, 0, 0], [0, 0, 1e-13]]
        mesh = single(corners)
        assert mesh.dimension == 3
        validate_mesh(mesh)
        # flattened to the same right triangle in the plane: the map onto it is conformal
        planar = single([[0, 0], [1e-13, 0], [0, 1e-13]])
        field = face_beltrami(MeshMap(mesh, planar))
        assert field.abs_mu.tolist() == [0.0] and field.folded.tolist() == [False]

    def test_degenerate_face_rejected_by_validate(self):
        m = TriMesh([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [[0, 1, 2]])
        for _ in range(2):  # a failed verdict is not cached
            with pytest.raises(ValidationError, match="degenerate") as info:
                validate_mesh(m)
            assert type(info.value) is DegenerateFaceError and info.value.face == 0

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
        sized = spy_verdict(monkeypatch, "_corner_terms")  # the area test's verdict
        oriented = spy_verdict(monkeypatch, "_oriented")
        surface = tmp_path / "hemi.obj"
        save_mesh(hemisphere(6), surface)
        gathered = spy_gathers(monkeypatch)
        src = load_mesh(surface)
        dst = load_mesh(surface)
        assert sized == oriented == gathered == []  # reading validates nothing
        MeshMap(src, dst)
        validate_mesh(src)
        assert sized == oriented == gathered == [src]
        validate_mesh(dst)
        validate_mesh(dst)
        assert sized == oriented == gathered == [src, dst]
        flat = tutte_disk(src)
        # a map's target runs neither test: its face list is its source's, and the block
        # pass folds a collapsed face of it
        assert sized == oriented == [src, dst]
        assert {"_corner_terms", "_oriented"}.isdisjoint(vars(flat.target))
        sized.clear()
        oriented.clear()
        save_mesh(flat.target, tmp_path / "flat.obj")
        gathered.clear()
        assert main(["analyze", str(surface), str(tmp_path / "flat.obj"), "--json"]) == 0
        assert len(sized) == len(oriented) == 1  # the source file's
        assert sized[0].vertices.tobytes() == src.vertices.tobytes()
        assert oriented[0] is sized[0]
        # the whole op gathers each mesh's coordinates once: the source's at validation,
        # the target's in the map's block pass
        assert len(gathered) == 2 and gathered[0] is sized[0]
        assert gathered[1].vertices[:, :2].tobytes() == flat.target.vertices.tobytes()

    def test_one_orientation_test_per_face_list(self, tmp_path, monkeypatch):
        oriented = spy_verdict(monkeypatch, "_oriented")
        tutte_disk(hemisphere(6))
        assert len(oriented) == 1
        oriented.clear()
        src = hemisphere(6)
        mapping = MeshMap(src, TriMesh(2 * src.vertices, src.faces))
        assert oriented == [src] and "_oriented" not in vars(mapping.target)
        surface, flat = tmp_path / "hemi.obj", tmp_path / "flat.obj"
        save_mesh(hemisphere(6), surface)
        oriented.clear()
        assert main(["param", str(surface), "-o", str(flat), "--quiet", "--analyze"]) == 0
        assert len(oriented) == 1
        oriented.clear()
        assert main(["analyze", str(surface), str(flat), "--json"]) == 0
        assert len(oriented) == 1  # the source file's

    def test_target_area_test_follows_the_source_checks(self):
        # a source that fails a check raises whatever its target; the target's area test is
        # then a fold verdict: its collapsed face gets NaN K and eps_mu, its neighbour does not
        verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        flipped = TriMesh(verts, [[0, 1, 2], [1, 2, 3]])
        collapsed = TriMesh([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, -1.0]], flipped.faces)
        with pytest.raises(ValidationError, match="inconsistent face orientation"):
            MeshMap(flipped, collapsed)
        good = TriMesh(verts, [[0, 1, 2], [2, 1, 3]])
        field = face_beltrami(MeshMap(good, TriMesh(collapsed.vertices, good.faces)))
        assert field.folded.tolist() == [True, False]
        assert np.isnan(field.dilatation[0]) and np.isnan(field.eps_mu[0])
        assert np.isfinite(field.dilatation[1]) and np.isfinite(field.eps_mu[1])

    def test_one_edge_pass_per_face_list(self, tmp_path, monkeypatch):
        passes = []
        edge_pass = qcdistort.mesh._edge_pass
        monkeypatch.setattr(qcdistort.mesh, "_edge_pass",
                            lambda mesh: passes.append(mesh) or edge_pass(mesh))
        surface, flat = tmp_path / "hemi.obj", tmp_path / "flat.obj"
        save_mesh(hemisphere(6), surface)
        for analyze in ([], ["--analyze"]):
            passes.clear()
            assert main(["param", str(surface), "-o", str(flat), "--quiet", *analyze]) == 0
            assert len(passes) == 1
        passes.clear()
        assert main(["analyze", str(surface), str(flat), "--json"]) == 0
        assert len(passes) == 1  # the source file's

        passes.clear()
        tutte_disk(hemisphere(6))
        assert len(passes) == 1
        passes.clear()
        src = hemisphere(6)
        mapping = MeshMap(src, TriMesh(2.0 * src.vertices, src.faces))
        assert len(passes) == 1
        assert "_edges" not in vars(mapping.target)
        assert not any(array.flags.writeable for array in src._edges)

    def test_reading_a_target_builds_no_verdict(self, tmp_path, monkeypatch):
        # the benchmark's 49,909-face analyze target, read as analyze reads it, then mapped
        disk = irregular_disk(25_000)
        save_mesh(perturbed_target(disk, np.random.default_rng(1)), tmp_path / "dst.off")
        disk = TriMesh(disk.vertices, disk.faces)  # a fresh source, with nothing kept
        passes = []
        edge_pass = qcdistort.mesh._edge_pass
        monkeypatch.setattr(qcdistort.mesh, "_edge_pass",
                            lambda mesh: passes.append(mesh) or edge_pass(mesh))
        sized = spy_verdict(monkeypatch, "_corner_terms")
        oriented = spy_verdict(monkeypatch, "_oriented")
        gathered = spy_gathers(monkeypatch)
        target = load_mesh(tmp_path / "dst.off")
        assert target.n_faces == 49_909
        assert passes == sized == oriented == gathered == []
        summarize(MeshMap(disk, target))
        # seven blocks of faces each: the source's at validation, the target's in the block pass
        assert passes == sized == oriented == [disk]
        assert gathered == [disk] * 7 + [target] * 7
        assert {"_edges", "_corner_terms", "_oriented"}.isdisjoint(vars(target))

    def test_orientation_is_checked_before_the_area(self, tmp_path, capsys):
        # face 1 is degenerate and runs along the edge (0, 1) from 0 to 1, as face 0 does
        verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 1e-16]]
        both = TriMesh(verts, [[0, 1, 2], [0, 1, 3]])
        target = TriMesh(2.0 * both.vertices, both.faces)
        for attempt in (lambda: validate_mesh(both), lambda: MeshMap(both, target),
                        lambda: tutte_disk(both)):
            with pytest.raises(ValidationError) as info:
                attempt()
            assert type(info.value) is ValidationError
            assert str(info.value) == "inconsistent face orientation across edge (0, 1)"
            assert {"_oriented", "_corner_terms"}.isdisjoint(vars(both))
        save_mesh(both, tmp_path / "both.obj")
        save_mesh(target, tmp_path / "target.obj")
        assert main(["analyze", str(tmp_path / "both.obj"), str(tmp_path / "target.obj")]) == 3
        assert capsys.readouterr().err == (f"error: {tmp_path / 'both.obj'}: inconsistent face "
                                           "orientation across edge (0, 1)\n")
        # the area test alone, as corner_angles runs it, still names the degenerate face
        with pytest.raises(DegenerateFaceError, match="face 1 is degenerate") as info:
            corner_angles(both)
        assert info.value.face == 1 and "_corner_terms" not in vars(both)


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

    def test_one_area_test_per_mesh(self, tmp_path, monkeypatch):
        # the angles are the kept corner terms that validation builds with the area test; a
        # map's target gets the same test per block, as its fold verdict
        tested = []
        for module in (qcdistort.mesh, qcdistort.beltrami):
            monkeypatch.setattr(module, "_degenerate",
                                lambda mesh, cross, real=module._degenerate:
                                tested.append(mesh) or real(mesh, cross))
        save_mesh(wavy_disk(300), tmp_path / "wavy.obj")
        loaded = load_mesh(tmp_path / "wavy.obj")
        assert tested == []  # reading runs no area test
        validate_mesh(loaded)
        assert tested == [loaded]
        corner_angles(loaded)
        assert tested == [loaded]
        fresh = wavy_disk(300)
        corner_angles(fresh)
        corner_angles(fresh)
        validate_mesh(fresh)
        assert tested == [loaded, fresh]
        tested.clear()
        target = TriMesh(2.0 * fresh.vertices, fresh.faces)
        summarize(MeshMap(fresh, target))
        assert tested == [target]  # one block; the source's verdict is kept
        tested.clear()
        other = wavy_disk(300)
        summarize(MeshMap(other, target))
        assert tested == [other, target]


def test_z_column_of_zeros_keeps_every_bit():
    """Planar faces are read in xy, and on z == 0 the 3D formulas give the
    same bits, so a planar mesh stored with a zero z column measures as
    the same mesh stored with 2 columns."""
    flat = irregular_disk(301)
    stored3 = TriMesh(np.column_stack([flat.vertices, np.zeros(flat.n_vertices)]),
                      flat.faces)
    assert flat.vertices.shape[1] == 2 and stored3.dimension == 2
    for measure in (corner_angles, face_areas):
        assert measure(stored3).tobytes() == measure(flat).tobytes()
    # the 3D cross-product formulas on the stored columns agree bit for bit; every
    # corner reads corner 0's |u x w|, twice the face's area
    tri = stored3.vertices[stored3.faces]
    cross = np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=-1)
    assert (0.5 * cross).tobytes() == face_areas(flat).tobytes()
    for k in range(3):
        u = tri[:, (k + 1) % 3] - tri[:, k]
        w = tri[:, (k + 2) % 3] - tri[:, k]
        angle = np.arctan2(cross, (u * w).sum(axis=1))
        assert angle.tobytes() == corner_angles(flat)[:, k].tobytes()


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

    @pytest.mark.parametrize("dim", [2, 3])
    def test_zero_faces_validate_with_no_boundary(self, dim):
        # the vectorised edge pass needs no special case for an empty face list
        mesh = TriMesh(np.eye(3)[:, :dim], np.zeros((0, 3), dtype=np.int64))
        validate_mesh(mesh)
        assert boundary_loops(mesh) == []

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

    def test_non_manifold_error_counts_the_named_edge(self):
        # edge (5, 6) is on four faces, edge (0, 1), the one named, on three
        verts = np.random.default_rng(0).normal(size=(11, 3))
        faces = [[0, 1, 2], [1, 0, 3], [0, 1, 4], [5, 6, 7], [6, 5, 8], [5, 6, 9], [6, 5, 10]]
        with pytest.raises(NonManifoldEdgeError) as info:
            boundary_loops(TriMesh(verts, faces))
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
        # a header count far beyond the file fails before any allocation
        path.write_text("OFF\n1000000000000 1 0\n0 0 0\n1 0 0\n")
        with pytest.raises(ParseError) as info:
            load_mesh(path)
        assert str(info.value) == f"{path}:4: unexpected end of file (wanted coordinate)"

    @pytest.mark.parametrize("name, text, line", [
        ("big.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\n", 4),
        ("big.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 -99999999999999999999\n", 4),
        ("big.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n", 6),
    ], ids=["obj", "obj-negative", "off"])
    def test_oversized_face_index_names_line(self, tmp_path, name, text, line):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            load_mesh(path)
        assert str(info.value).startswith(f"{path}:{line}: bad face index ")

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


OFF_TRIANGLE = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n"


# one case per message the readers raise, and the cases that set which of two
# errors is raised
PARSE_ERRORS = [
    ("m.obj", "v 0 0 0\nv 1 zero 0\n", ":2: bad vertex coordinate"),
    ("m.obj", "v 0 0 0\n\nv 1\n", ":3: vertex needs at least 2 coordinates"),
    ("m.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 x/1\n", ":4: bad face index 'x/1'"),
    ("m.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 0 2\n", ":4: face indices are 1-based"),
    ("m.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\n", ":4: face needs at least 3 vertices"),
    # a short face is reported only once the whole file has parsed
    ("m.obj", "v 0 0 0\nf 1 2\nv 1 0 0\nv 0 1 q\n", ":4: bad vertex coordinate"),
    ("m.off", "3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", ":1: missing OFF header"),
    ("m.off", "\n\nOFF\nx 1 0\n", ":4: bad vertex count 'x'"),
    ("m.off", "OFF\n3 y 0\n", ":2: bad face count 'y'"),
    ("m.off", "OFF\n3 1 z\n", ":2: bad edge count 'z'"),
    ("m.off", "OFF\n3\n", ":2: unexpected end of file (wanted face count)"),
    ("m.off", "OFF\n3 1 0\n0 0 0\n1 q 0\n0 1 0\n", ":4: bad coordinate 'q'"),
    ("m.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n", ":4: unexpected end of file (wanted coordinate)"),
    ("m.off", "OFF\n-3 1 0\n", ": negative element count in header"),
    ("m.off", OFF_TRIANGLE + "3.0 0 1 2\n", ":6: bad face size '3.0'"),
    ("m.off", OFF_TRIANGLE + "3 0 1 -\n", ":6: bad face index '-'"),
    ("m.off", OFF_TRIANGLE + "2 0 1\n", ":6: face needs at least 3 vertices"),
    ("m.off", OFF_TRIANGLE + "# no faces\n", ":5: unexpected end of file (wanted face size)"),
    ("m.off", OFF_TRIANGLE + "3 0 1\n", ":6: unexpected end of file (wanted face index)"),
    ("m.off", OFF_TRIANGLE + "3 0 1\n2\n", ":6: unexpected end of line (wanted face index)"),
    # a huge face size fails at once, allocating nothing
    ("m.off", OFF_TRIANGLE + "99999999999 0 1 2\n",
     ":6: unexpected end of file (wanted face index)"),
    ("m.off", OFF_TRIANGLE + "99999999999 0 1 2\n3 0 1 2\n",
     ":6: unexpected end of line (wanted face index)"),
    ("m.off", OFF_TRIANGLE + "99999999999999999999999 0 1 2\n",
     ":6: unexpected end of file (wanted face index)"),
]


@pytest.mark.parametrize("name, text, message", PARSE_ERRORS,
                         ids=[f"{name[-3:]}-{message.split(': ')[1]}"
                              for name, _, message in PARSE_ERRORS])
def test_parse_error_names_file_and_line(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        load_mesh(path)
    assert str(info.value) == f"{path}{message}"


@pytest.mark.parametrize("text, line", [
    ("\n\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", 3),  # the first token's line
    ("", 1),
    ("# no tokens\n\n", 1),
], ids=["leading-blank-lines", "empty", "comment-only"])
def test_missing_off_header_names_first_token_line(tmp_path, text, line):
    path = tmp_path / "m.off"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        load_mesh(path)
    assert str(info.value) == f"{path}:{line}: missing OFF header"
    with pytest.raises(ParseError) as info:
        _parse_off(path, text.encode())
    assert str(info.value) == f"{path}:{line}: missing OFF header"


@pytest.mark.parametrize("name, text", [
    ("m.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 2 2 0\nf 1 2 3\n"),
    ("m.off", "OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n2 2 0\n3 0 1 2\n"),
])
def test_leading_bom_is_dropped(tmp_path, name, text):
    plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
    plain.write_text(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert_same_arrays(loaded(marked), loaded(plain))
    mesh = load_mesh(marked)
    assert mesh.n_vertices == 4 and face_areas(mesh).tolist() == [0.5]


def test_whitespace_table_is_str_isspace():
    spaces = {c for c in range(sys.maxunicode + 1) if chr(c).isspace()}
    assert len(spaces) == 29 and set(qcdistort.mesh._SPACE_CODES) == spaces
    table = qcdistort.mesh._IS_SPACE
    assert set(np.flatnonzero(table).tolist()) == spaces and not table[-1]


def outcome(load):
    """The loaded arrays, or the type and message of the error raised."""
    try:
        mesh = load()
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return mesh.vertices, mesh.faces


def loaded(path):
    mesh = load_mesh(path)
    return mesh.vertices, mesh.faces


def assert_same_arrays(a, b):
    for x, y in zip(a, b):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


@pytest.fixture(scope="module")
def io_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("bulk")


MUTATION_LISTS = st.lists(
    st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 10**6),
              st.integers(0, 3), st.integers(0, 10**6)),
    max_size=3,
)


class TestBulkReader:
    """``load_mesh``, and a source's validation after it, read every input as the line
    parsers in ``mesh_text`` do: the same arrays bit for bit, or the same error with the
    same message."""

    @pytest.mark.parametrize("fmt", ["obj", "off"])
    @settings(max_examples=200, deadline=None)
    @given(mutations=MUTATION_LISTS)
    def test_agrees_with_line_parser(self, io_dir, fmt, mutations):
        plain = io_dir / f"plain.{fmt}"
        save_mesh(wavy_disk(12), plain)
        self.check_agreement(io_dir, fmt, mutate(plain.read_text(), mutations))

    @pytest.mark.parametrize("fmt", ["obj", "off"])
    @settings(max_examples=200, deadline=None)
    @given(mutations=MUTATION_LISTS)
    def test_exporter_layout_agrees_with_line_parser(self, io_dir, fmt, mutations):
        plain = io_dir / f"plain.{fmt}"
        save_mesh(wavy_disk(12), plain)
        text = exporter_text(plain.read_text(), fmt)
        self.check_agreement(io_dir, fmt, mutate(text, mutations))

    @pytest.mark.parametrize("layout", ["plain", "exporter"])
    @pytest.mark.parametrize("fmt", ["obj", "off"])
    def test_every_odd_line_agrees(self, tmp_path, fmt, layout):
        plain = tmp_path / f"plain.{fmt}"
        save_mesh(wavy_disk(12), plain)
        text = plain.read_text()
        if layout == "exporter":
            text = exporter_text(text, fmt)
        n_lines = text.count("\n")
        for line in range(len(ODD_LINES)):
            for at in (0, 2, n_lines // 2, n_lines - 1):
                self.check_agreement(tmp_path, fmt, mutate(text, [("line", at, 0, line)]))

    @pytest.mark.parametrize("fmt, layout", [
        ("obj", "crlf"), ("obj", "unterminated"), ("obj", "exporter"),
        ("obj", "exporter-crlf"), ("obj", "normals-only"), ("obj", "indented"), ("obj", "bom"),
        ("off", "crlf"), ("off", "tabs"), ("off", "exporter"), ("off", "exporter-crlf"),
        ("off", "lower-case"), ("off", "bom"),
    ])
    def test_documented_layouts_take_bulk_path(self, tmp_path, fmt, layout):
        """Each layout the README names loads to the arrays of the file
        ``save_mesh`` wrote, bit for bit."""
        plain = tmp_path / f"plain.{fmt}"
        save_mesh(wavy_disk(12), plain)
        text = plain.read_text()
        if layout.startswith("exporter"):
            text = exporter_text(text, fmt)
        elif layout == "unterminated":
            text = text[:-1]
        elif layout == "tabs":
            text = text.replace(" ", "\t")
        elif layout == "normals-only":
            text = re.sub(r"^f (\d+) (\d+) (\d+)$", r"f \1//\1 \2//\2 \3//\3", text,
                          flags=re.M)
        elif layout == "indented":
            text = "".join(" " + line for line in text.splitlines(keepends=True))
        elif layout == "lower-case":
            text = "off" + text[3:]
        elif layout == "bom":
            text = "\ufeff" + text
        if layout.endswith("crlf"):
            text = text.replace("\n", "\r\n")
        path = tmp_path / f"layout.{fmt}"
        path.write_bytes(text.encode())
        assert_same_arrays(loaded(path), loaded(plain))

    @pytest.mark.parametrize("colors", COLORS)
    def test_off_face_colors_are_dropped(self, tmp_path, colors):
        plain = tmp_path / "plain.off"
        save_mesh(wavy_disk(12), plain)
        lines = plain.read_text().splitlines()
        n_faces = int(lines[1].split()[1])
        colored = lines[:-n_faces] + [line + colors for line in lines[-n_faces:]]
        path = tmp_path / "colored.off"
        path.write_text("\n".join(colored) + "\n")
        assert_same_arrays(loaded(path), loaded(plain))
        self.check_agreement(tmp_path, "off", path.read_bytes())

    @pytest.mark.parametrize("text, message", [
        ("3 0 1 2 3 1 3 2\n", "{path}:7: unexpected end of file (wanted face size)"),
        ("3 0 1\n2\n3 1 3 2\n", "{path}:7: unexpected end of line (wanted face index)"),
    ], ids=["joined", "split"])
    def test_off_record_on_two_lines_or_sharing_one(self, tmp_path, text, message):
        path = tmp_path / "rec.off"
        path.write_text("OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n" + text)
        with pytest.raises(ParseError) as info:
            load_mesh(path)
        assert str(info.value) == message.format(path=path)

    @staticmethod
    def check_agreement(io_dir, fmt, data):
        path = io_dir / f"mutated.{fmt}"
        path.write_bytes(data)
        parse = _parse_obj if fmt == "obj" else _parse_off

        def line_parsed():
            verts, faces = parse(path, data)
            try:
                mesh = TriMesh(verts, faces)
                validate_mesh(mesh)
            except ValidationError as exc:  # a source file is named in front
                raise type(exc)(f"{path}: {exc}") from None
            return mesh

        # the CLI's source read: load_mesh, then validation with the path in front
        expected, actual = outcome(line_parsed), outcome(lambda: _load_source(path))
        if isinstance(expected[0], type):
            assert actual == expected
        else:
            assert_same_arrays(actual, expected)


@pytest.mark.parametrize("layout", ["plain", "exporter"])
@pytest.mark.parametrize("fmt", ["obj", "off"])
def test_every_odd_token_agrees(tmp_path, fmt, layout):
    """Each of ``ODD_TOKENS`` in a vertex line and a face line, at either end and
    inside a token block, reads as the line parsers read it."""
    plain = tmp_path / f"plain.{fmt}"
    save_mesh(wavy_disk(12), plain)
    text = plain.read_text()
    if layout == "exporter":
        text = exporter_text(text, fmt)
    n_lines = text.count("\n")
    for pick in range(len(ODD_TOKENS)):
        for at in (2, n_lines // 2, n_lines - 1):
            for slot in (1, 3):
                TestBulkReader.check_agreement(tmp_path, fmt,
                                               mutate(text, [("token", at, slot, pick)]))


def readme_layout(text, fmt, layout):
    """``save_mesh`` text in one of the layouts the README says the reader takes, or
    with its separators or OFF face indices written as ``output_digest.py`` writes them."""
    if layout == "exporter":
        return exporter_text(text, fmt)
    if layout == "crlf":
        return text.replace("\n", "\r\n")
    if layout == "tabs":
        return text.replace(" ", "\t")
    if layout == "indented":
        return "".join(" " + line for line in text.splitlines(keepends=True))
    if layout == "lower-case":
        return "off" + text[3:]
    if layout == "separators":  # every whitespace str.split() splits at in ASCII, in turn
        seps = iter("\t\x0b\x0c\x1c" * len(text))
        return re.sub(" ", lambda _: next(seps), text)
    if layout == "plus":  # OFF face indices with a leading +
        return re.sub(r"^3 (\d+) (\d+) (\d+)$", r"3 +\1 +\2 +\3", text, flags=re.M)
    return "\ufeff" + text if layout == "bom" else text


@pytest.mark.parametrize("fmt, layout", [
    (fmt, layout) for fmt in ("obj", "off")
    for layout in ("save_mesh", "crlf", "tabs", "indented", "bom", "exporter", "separators")
] + [("off", "lower-case"), ("off", "plus")])
def test_readme_layouts_never_take_the_per_token_fallback(tmp_path, monkeypatch, fmt, layout):
    """Every number of a README layout comes from the one C-level parse per block:
    a parse refused (None) would send its block through ``float``/``int`` per token."""
    plain = tmp_path / f"plain.{fmt}"
    save_mesh(wavy_disk(12), plain)
    path = tmp_path / f"layout.{fmt}"
    path.write_bytes(readme_layout(plain.read_text(), fmt, layout).encode())
    results = []
    parse = qcdistort.mesh._Tokens.parse

    def spy(self, *args, **kwargs):
        results.append(parse(self, *args, **kwargs))
        return results[-1]

    monkeypatch.setattr(qcdistort.mesh._Tokens, "parse", spy)
    assert_same_arrays(loaded(path), loaded(plain))
    assert results and all(values is not None for values in results)


def reference_mesh_text(vertices, faces, fmt, face_colors=None):
    """The per-row writers the block writers replaced, kept as the reference."""
    if vertices.shape[1] == 2:
        vertices = np.column_stack([vertices, np.zeros(len(vertices))])
    xyz = [f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n" for v in vertices]
    if fmt == "obj":
        return "".join(f"v {row}" for row in xyz) + "".join(
            f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n" for f in faces)
    if fmt == "off":
        return f"OFF\n{len(vertices)} {len(faces)} 0\n" + "".join(xyz) + "".join(
            f"3 {f[0]} {f[1]} {f[2]}\n" for f in faces)
    header = (
        "ply\nformat ascii 1.0\n"
        f"element vertex {len(vertices)}\n"
        "property double x\nproperty double y\nproperty double z\n"
        f"element face {len(faces)}\n"
        "property list uchar int vertex_indices\n"
    )
    if face_colors is None:
        rows = [f"3 {f[0]} {f[1]} {f[2]}\n" for f in faces]
    else:
        header += "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        rows = [f"3 {f[0]} {f[1]} {f[2]} {c[0]} {c[1]} {c[2]}\n"
                for f, c in zip(faces, face_colors)]
    return header + "end_header\n" + "".join(xyz) + "".join(rows)


def awkward_mesh(dim):
    """A mesh whose coordinates span many exponents, with -0.0 and 0.0."""
    base = wavy_disk(60)
    scale = np.array([1e-300, -3.0, 1e300])[:dim]
    verts = base.vertices[:, :dim] * scale
    verts[0, 0] = -0.0
    verts[1, 1] = 0.0
    return TriMesh(verts, base.faces)


class TestWrittenBytes:
    """The block writers give the bytes of the per-row writers exactly."""

    @pytest.mark.parametrize("block_rows", [7, qcdistort.mesh._FACE_BLOCK])
    @pytest.mark.parametrize("fmt", ["obj", "off", "ply"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_save_mesh(self, tmp_path, monkeypatch, block_rows, fmt, dim):
        monkeypatch.setattr(qcdistort.mesh, "_FACE_BLOCK", block_rows)
        mesh = awkward_mesh(dim)
        path = tmp_path / f"m.{fmt}"
        save_mesh(mesh, path)
        assert path.read_bytes() == reference_mesh_text(
            mesh.vertices, mesh.faces, fmt).encode("ascii")

    @pytest.mark.parametrize("block_rows", [7, qcdistort.mesh._FACE_BLOCK])
    def test_colored_ply(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(qcdistort.mesh, "_FACE_BLOCK", block_rows)
        src = wavy_disk(60)
        flat = src.vertices[:, :2].copy()
        flat[30] = flat[0] + 1.5 * (flat[0] - flat[30])  # folds faces around 30
        mapping = MeshMap(TriMesh(src.vertices[:, :2], src.faces), TriMesh(flat, src.faces))
        path = tmp_path / "c.ply"
        export_colored_mesh(mapping, "abs_mu", path)
        bf = face_beltrami(mapping)
        assert bf.folded.any() and not bf.folded.all()
        colors = qcdistort.report.face_colors(
            bf.abs_mu, bf.folded, float(bf.abs_mu[~bf.folded].max()))
        assert path.read_bytes() == reference_mesh_text(
            flat, src.faces, "ply", face_colors=colors).encode("ascii")
