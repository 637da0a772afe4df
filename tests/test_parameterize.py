import math

import numpy as np
import pytest
import scipy.sparse.linalg

from qcdistort import (
    ParamConfig,
    SolverError,
    TopologyError,
    TriMesh,
    boundary_loops,
    face_beltrami,
    tutte_disk,
)
from qcdistort.parameterize import WEIGHT_CHOICES
from qcdistort.synth import bumpy_disk, flat_disk, hemisphere, irregular_disk, tetrahedron


def signed_areas(mesh):
    tri = mesh.vertices[mesh.faces][:, :, :2]
    return 0.5 * (
        (tri[:, 1, 0] - tri[:, 0, 0]) * (tri[:, 2, 1] - tri[:, 0, 1])
        - (tri[:, 2, 0] - tri[:, 0, 0]) * (tri[:, 1, 1] - tri[:, 0, 1])
    )


def test_config_validation():
    with pytest.raises(ValueError):
        ParamConfig(weights="magic")


def test_single_triangle():
    mesh = TriMesh([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
    mapping = tutte_disk(mesh)
    uv = mapping.target.vertices
    assert np.allclose(np.linalg.norm(uv, axis=1), 1.0, atol=1e-12)
    # arc spacing proportional to the boundary edge lengths (2, sqrt5, 1)
    loop = boundary_loops(mesh)[0]
    lengths = [
        np.linalg.norm(mesh.vertices[loop[(i + 1) % 3]] - mesh.vertices[loop[i]])
        for i in range(3)
    ]
    total = sum(lengths)
    angles = np.arctan2(uv[loop, 1], uv[loop, 0])
    gaps = np.diff(np.unwrap(np.concatenate([angles, angles[:1]])))
    assert np.allclose(np.abs(gaps), 2 * math.pi * np.array(lengths) / total, atol=1e-9)


def test_flat_disk_uniform_is_fold_free_and_solved():
    mesh = flat_disk(12)
    mapping = tutte_disk(mesh, ParamConfig(weights="uniform"))
    field = face_beltrami(mapping)
    assert field.folded_count == 0
    assert (signed_areas(mapping.target) > 0).all()
    # independent residual check: interior vertices sit at neighbor averages
    uv = mapping.target.vertices
    boundary = set(boundary_loops(mesh)[0])
    neighbors = {}
    for f in mesh.faces:
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            neighbors.setdefault(int(a), set()).add(int(b))
            neighbors.setdefault(int(b), set()).add(int(a))
    worst = 0.0
    for v, nbrs in neighbors.items():
        if v in boundary:
            continue
        resid = len(nbrs) * uv[v] - sum(uv[list(nbrs)])
        worst = max(worst, float(np.abs(resid).max()))
    assert worst <= 1e-10


def test_boundary_mapped_bijectively_with_increasing_angles():
    mesh = hemisphere(10)
    mapping = tutte_disk(mesh)
    loop = boundary_loops(mesh)[0]
    uv = mapping.target.vertices[loop]
    assert np.allclose(np.linalg.norm(uv, axis=1), 1.0, atol=1e-12)
    angles = np.unwrap(np.arctan2(uv[:, 1], uv[:, 0]))
    diffs = np.diff(angles)
    assert (diffs > 0).all() or (diffs < 0).all()


def test_cotangent_beats_uniform_on_hemisphere():
    mesh = hemisphere(16)
    means = {}
    for weights in ("uniform", "cotangent"):
        field = face_beltrami(tutte_disk(mesh, ParamConfig(weights=weights)))
        ok = ~field.folded
        means[weights] = field.abs_mu[ok].mean()
    assert means["cotangent"] < means["uniform"]


def test_closed_mesh_rejected():
    with pytest.raises(TopologyError):
        tutte_disk(tetrahedron())


def test_zero_faces_rejected():
    with pytest.raises(TopologyError, match="expected exactly one boundary loop, found 0"):
        tutte_disk(TriMesh(np.eye(3)[:, :2], np.zeros((0, 3), dtype=np.int64)))


# faces as given and reversed: the boundary loop follows the faces either way
ORIENTED_DISKS = pytest.mark.parametrize("mesh", [
    flat_disk(8), TriMesh(flat_disk(8).vertices, flat_disk(8).faces[:, ::-1]),
    bumpy_disk(300), TriMesh(bumpy_disk(300).vertices, bumpy_disk(300).faces[:, ::-1]),
], ids=["flat_disk", "flat_disk-reversed", "bumpy_disk", "bumpy_disk-reversed"])


@ORIENTED_DISKS
def test_uniform_embedding_is_positively_oriented(mesh):
    assert (signed_areas(tutte_disk(mesh).target) > 0).all()


@ORIENTED_DISKS
@pytest.mark.parametrize("weights", WEIGHT_CHOICES)
def test_signed_area_is_the_boundary_polygons(mesh, weights):
    # the loop goes counter-clockwise round the unit circle, so the faces'
    # signed areas sum to the polygon's, positive whatever the interior solve
    uv = tutte_disk(mesh, ParamConfig(weights=weights)).target.vertices
    (loop,) = boundary_loops(mesh)
    x, y = uv[loop].T
    polygon = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    assert polygon > 3.0  # near pi: the loop is close to the unit circle
    assert signed_areas(TriMesh(uv, mesh.faces)).sum() == pytest.approx(polygon, rel=1e-12)


def test_annulus_rejected():
    # two boundary loops: a triangulated square ring
    outer = np.array([[0, 0], [3, 0], [3, 3], [0, 3]], dtype=float)
    inner = np.array([[1, 1], [2, 1], [2, 2], [1, 2]], dtype=float)
    verts = np.vstack([outer, inner])
    faces = []
    for i in range(4):
        a, b = i, (i + 1) % 4
        c, d = 4 + i, 4 + (i + 1) % 4
        faces.append((a, b, d))
        faces.append((a, d, c))
    mesh = TriMesh(verts, np.asarray(faces))
    with pytest.raises(TopologyError, match="boundary"):
        tutte_disk(mesh)


@pytest.mark.parametrize("mesh", [flat_disk(6), hemisphere(8), irregular_disk(301)],
                         ids=["flat_disk", "hemisphere", "irregular_disk"])
def test_edge_count_from_faces_and_boundary(mesh):
    # tutte_disk counts the edges of a disk as (3F + B) / 2
    edges = {frozenset((int(f[a]), int(f[b])))
             for f in mesh.faces for a, b in ((0, 1), (1, 2), (2, 0))}
    (loop,) = boundary_loops(mesh)
    assert 3 * mesh.n_faces + len(loop) == 2 * len(edges)


def test_failed_solve_raises_solver_error(monkeypatch):
    # scipy returns NaN instead of raising on a singular matrix
    monkeypatch.setattr(scipy.sparse.linalg, "spsolve",
                        lambda a, b: np.full(b.shape, np.nan))
    with pytest.raises(SolverError, match="residual"):
        tutte_disk(flat_disk(4))


def test_determinism_bit_identical():
    mesh = hemisphere(12)
    a = tutte_disk(mesh, ParamConfig(weights="cotangent"))
    b = tutte_disk(mesh, ParamConfig(weights="cotangent"))
    assert np.array_equal(a.target.vertices, b.target.vertices)
