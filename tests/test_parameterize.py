import math

import numpy as np
import pytest

from qcdistort import (
    ParamConfig,
    SolverError,
    TopologyError,
    TriMesh,
    boundary_loops,
    face_beltrami,
    tutte_disk,
)
from qcdistort import parameterize
from qcdistort.mesh import _half_edges
from qcdistort.parameterize import LEAF_SIZE, SOLVER_TOLERANCE, WEIGHT_CHOICES
from qcdistort.synth import (
    bumpy_disk,
    flat_disk,
    hemisphere,
    irregular_disk,
    tetrahedron,
    triangulate,
)


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
    # a solve that returns NaN is caught by the residual check
    monkeypatch.setattr(parameterize, "_multifrontal_solve",
                        lambda rows, cols, vals, b, points: np.full(b.shape, np.nan))
    with pytest.raises(SolverError, match="residual"):
        tutte_disk(flat_disk(4))


@pytest.mark.parametrize("offset", [1e-6, 1e-10])
def test_inaccurate_solve_raises_solver_error(monkeypatch, offset):
    # on flat_disk(4), a solve off by 1e-6 (1e-10) has a backward error of 2.4e-7 (2.4e-11):
    # a threshold a million times the real one would pass the second
    real = parameterize._multifrontal_solve
    monkeypatch.setattr(parameterize, "_multifrontal_solve", lambda *args: real(*args) + offset)
    with pytest.raises(SolverError, match=r"^linear-system backward error \S+ exceeds threshold "
                                          r"1\.000e-13 \(residual \S+\)$"):
        tutte_disk(flat_disk(4))


def sliver_disk():
    """``flat_disk(18)`` with the first vertex of its first all-interior face moved to 1e-8 of
    the way from the midpoint of the opposite edge: a valid mesh whose cotangent weights reach
    about 1e8, so a correct solve leaves an absolute residual near 7.6e-9."""
    mesh = flat_disk(18)
    (loop,) = boundary_loops(mesh)
    on_boundary = np.isin(mesh.faces, loop).any(axis=1)
    v, i, j = mesh.faces[np.argmin(on_boundary)]
    vertices = mesh.vertices.copy()
    middle = 0.5 * (vertices[i] + vertices[j])
    vertices[v] = middle + 1e-8 * (vertices[v] - middle)
    return TriMesh(vertices, mesh.faces)


@pytest.mark.parametrize("weights", WEIGHT_CHOICES)
def test_large_weights_solve_when_the_backward_error_is_small(weights):
    # the check is relative to ||A|| ||x|| + ||b|| (backward error 7.0e-17 with cotangent
    # weights), so a scale of the weights alone does not fail a good solve
    mapping = tutte_disk(sliver_disk(), ParamConfig(weights=weights))
    assert face_beltrami(mapping).folded_count == 0


def test_singular_front_raises_solver_error(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(parameterize, "_multifrontal_solve", singular)
    with pytest.raises(SolverError, match=r"^linear solve failed: Singular matrix$") as info:
        tutte_disk(flat_disk(4))
    assert info.value.__cause__ is None and info.value.__suppress_context__


def tiny_disk(n_interior):
    """Twelve boundary vertices on the unit circle round ``n_interior``
    sunflower points inside radius 0.9, Delaunay-triangulated."""
    angle = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
    t = np.arange(n_interior) + 0.5
    radius = 0.9 * np.sqrt(t / n_interior)
    spin = np.pi * (3.0 - np.sqrt(5.0)) * t
    points = np.vstack([np.column_stack([np.cos(angle), np.sin(angle)]),
                        radius[:, None] * np.column_stack([np.cos(spin), np.sin(spin)])])
    mesh = TriMesh(points, triangulate(points))
    assert mesh.n_vertices - len(boundary_loops(mesh)[0]) == n_interior
    return mesh


def dirichlet_block(mesh, weights):
    """The interior block ``A`` of the weighted Laplacian of a disk, dense,
    and the right-hand side ``b`` for random boundary positions."""
    first = np.unique(mesh._edges[0], return_index=True)[1]  # one half-edge per edge
    i, j = (ends[first] for ends in _half_edges(mesh.faces))
    w = parameterize._edge_weights(mesh, weights)
    n = mesh.n_vertices
    laplacian = np.zeros((n, n))
    np.add.at(laplacian, (i, j), -w)
    np.add.at(laplacian, (j, i), -w)
    laplacian[np.diag_indices(n)] = -laplacian.sum(axis=1)
    (loop,) = boundary_loops(mesh)
    interior = np.setdiff1d(np.arange(n), loop)
    uv = np.random.default_rng(5).standard_normal((len(loop), 2))
    return laplacian[np.ix_(interior, interior)], -laplacian[np.ix_(interior, loop)] @ uv, interior


SOLVER_MESHES = {
    "flat_disk": lambda: flat_disk(12),
    "hemisphere": lambda: hemisphere(14),
    "irregular_disk": lambda: irregular_disk(900),
    "one_interior": lambda: tiny_disk(1),
    "leaf_size": lambda: tiny_disk(LEAF_SIZE),
    "leaf_size_plus_one": lambda: tiny_disk(LEAF_SIZE + 1),
}


@pytest.mark.parametrize("weights", WEIGHT_CHOICES)
@pytest.mark.parametrize("name", SOLVER_MESHES)
def test_multifrontal_solve_agrees_with_dense_solve(name, weights):
    mesh = SOLVER_MESHES[name]()
    dense, b, interior = dirichlet_block(mesh, weights)
    rows, cols = np.nonzero(dense)
    got = parameterize._multifrontal_solve(rows, cols, dense[rows, cols], b,
                                           mesh.vertices[interior])
    want = np.linalg.solve(dense, b)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    backward_error = np.abs(dense @ got - b).max() / (
        np.abs(dense).sum(axis=1).max() * np.abs(got).max() + np.abs(b).max())
    assert backward_error <= SOLVER_TOLERANCE


def test_determinism_bit_identical():
    mesh = hemisphere(12)
    a = tutte_disk(mesh, ParamConfig(weights="cotangent"))
    b = tutte_disk(mesh, ParamConfig(weights="cotangent"))
    assert np.array_equal(a.target.vertices, b.target.vertices)
