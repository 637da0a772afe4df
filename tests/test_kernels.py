"""The column kernels and the vectorised variance keep every bit.

The per-face formulas read each coordinate as its own column and write
their products out per component; the variance squares with
``np.square``, whose IEEE products are correctly rounded.  The references
below are the implementations these replaced: per-face coordinates stacked
on a last axis with numpy's ``sum``, ``cross`` and ``linalg.norm`` over it,
corner fields as ``(m, 3)`` columns with ``mean(axis=1)`` and a row mask
for the bound check, and a Python generator for the variance, which
squares with ``*`` as the package does.  ``summarize``'s fields are held to
them as well as the public field functions.  Meshes are drawn in the three
vertex layouts the package reads (2 columns, 3 columns with z inside the
planar tolerance, 3D), with folded and anti-conformal target faces,
repeated and signed-zero coordinates, and a sliver face near the
degeneracy threshold.  The statistics' vectorised exact sum is held to
``math.fsum``, bit for bit, and the squares to ``Fraction``.  The per-face
passes run in blocks of faces; the fields are also held to the references
with blocks of 5 faces, cut at every position of small maps, and
``summarize`` is held to a working set no larger at 49,909 faces than at
25,909.
"""

import contextlib
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import qcdistort.angular
import qcdistort.beltrami
import qcdistort.mesh
import qcdistort.report
from qcdistort import (
    DomainError,
    MeshMap,
    TriMesh,
    ValidationError,
    affine_coefficients,
    corner_angles,
    corner_distortion,
    dilatation,
    epsilon_mu,
    face_areas,
    face_beltrami,
    flatten_triangle,
    summarize,
    synth,
)
from qcdistort.beltrami import FZ_GUARD, AffineMap2D
from qcdistort.mesh import _require_area
from qcdistort.parameterize import _edge_weights
from qcdistort.report import BOUND_TOL, FieldStats, _exact_sum, _fsum_stats

LAYOUTS = ["2-column", "3-column-planar", "3d"]

# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------


def ref_cross_2d(u, w):
    return u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]


def ref_cross_magnitude(u, w):
    if u.shape[-1] == 2:
        return np.abs(ref_cross_2d(u, w))
    return np.linalg.norm(np.cross(u, w), axis=-1)


def ref_face_coords(mesh):
    return mesh.vertices[:, :mesh.dimension][mesh.faces]


def ref_corner_terms(tri, k):
    u = tri[:, (k + 1) % 3] - tri[:, k]
    w = tri[:, (k + 2) % 3] - tri[:, k]
    return (u * w).sum(axis=1), ref_cross_magnitude(u, w)


def ref_face_areas(mesh):
    return 0.5 * ref_corner_terms(ref_face_coords(mesh), 0)[1]


def ref_corner_angles(mesh):
    tri = ref_face_coords(mesh)
    terms = [ref_corner_terms(tri, k) for k in range(3)]
    _require_area(mesh, 0.5 * terms[0][1])
    return np.column_stack([np.arctan2(cross, dot) for dot, cross in terms])


def ref_cotangent_matrix(mesh):
    faces = mesh.faces
    tri = ref_face_coords(mesh)
    rows_list, cols_list, vals_list = [], [], []
    for k in range(3):
        i = faces[:, (k + 1) % 3]
        j = faces[:, (k + 2) % 3]
        rows_list += [i, j]
        cols_list += [j, i]
        dot, cross = ref_corner_terms(tri, k)
        half_cot = 0.5 * (dot / cross)
        vals_list += [half_cot, half_cot]
    n = mesh.n_vertices
    return sparse.coo_matrix(
        (np.concatenate(vals_list),
         (np.concatenate(rows_list), np.concatenate(cols_list))),
        shape=(n, n),
    ).tocsr()


def edge_weight_matrix(mesh, kind):
    """The symmetric CSR matrix of ``_edge_weights``: each undirected edge's
    weight at (i, j) and at (j, i)."""
    half, inverse, _ = mesh._edges
    i, j = half[np.unique(inverse, return_index=True)[1]].T  # one half-edge per edge
    weights = _edge_weights(mesh, kind)
    n = mesh.n_vertices
    return sparse.coo_matrix(
        (np.concatenate([weights, weights]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(n, n),
    ).tocsr()


def ref_one_face(*corners):
    mesh = TriMesh(np.asarray(corners, dtype=np.float64), [[0, 1, 2]])
    _require_area(mesh, ref_face_areas(mesh))
    return ref_face_coords(mesh)


def ref_flatten_faces(tri):
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    l1 = np.linalg.norm(e1, axis=1)
    x2 = (e1 * e2).sum(axis=1) / l1
    perp = e2 - (x2 / l1)[:, None] * e1
    y2 = np.linalg.norm(perp, axis=1)
    out = np.zeros((tri.shape[0], 3, 2), dtype=np.float64)
    out[:, 1, 0] = l1
    out[:, 2, 0] = x2
    out[:, 2, 1] = y2
    return out


def ref_flatten_triangle(p0, p1, p2):
    return ref_flatten_faces(ref_one_face(p0, p1, p2))[0]


def ref_face_coords_2d(mesh):
    tri = ref_face_coords(mesh)
    return tri if mesh.dimension == 2 else ref_flatten_faces(tri)


def ref_affine_arrays(src, dst):
    u = src[:, 1] - src[:, 0]
    w = src[:, 2] - src[:, 0]
    dx1, dy1 = u[:, 0], u[:, 1]
    dx2, dy2 = w[:, 0], w[:, 1]
    det = ref_cross_2d(u, w)
    du1 = dst[:, 1, 0] - dst[:, 0, 0]
    dv1 = dst[:, 1, 1] - dst[:, 0, 1]
    du2 = dst[:, 2, 0] - dst[:, 0, 0]
    dv2 = dst[:, 2, 1] - dst[:, 0, 1]
    a = (du1 * dy2 - du2 * dy1) / det
    b = (du2 * dx1 - du1 * dx2) / det
    c = (dv1 * dy2 - dv2 * dy1) / det
    d = (dv2 * dx1 - dv1 * dx2) / det
    return a, b, c, d


def ref_affine_coefficients(src_tri, dst_tri):
    src = ref_one_face(*np.asarray(src_tri, dtype=np.float64).reshape(3, 2))
    dst = np.asarray(dst_tri, dtype=np.float64).reshape(1, 3, 2)
    a, b, c, d = (float(arr[0]) for arr in ref_affine_arrays(src, dst))
    p = dst[0, 0, 0] - a * src[0, 0, 0] - b * src[0, 0, 1]
    q = dst[0, 0, 1] - c * src[0, 0, 0] - d * src[0, 0, 1]
    return AffineMap2D(a, b, c, d, float(p), float(q))


def ref_mu_arrays(a, b, c, d):
    fz = 0.5 * ((a + d) + 1j * (c - b))
    fzb = 0.5 * ((a - d) + 1j * (c + b))
    vanished = np.abs(fz) <= FZ_GUARD * (np.abs(fz) + np.abs(fzb))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mu = fzb / fz
    mu = np.where(vanished, complex(np.nan, np.nan), mu)
    abs_mu = np.abs(mu)
    abs_mu[vanished] = np.inf
    return mu, abs_mu, vanished


def ref_face_beltrami(mapping):
    m = mapping.n_faces
    a, b, c, d = ref_affine_arrays(ref_face_coords_2d(mapping.source),
                                   ref_face_coords_2d(mapping.target))
    mu, abs_mu, vanished = ref_mu_arrays(a, b, c, d)
    folded = (a * d - b * c <= 0) | vanished | (abs_mu >= 1.0)
    ok = ~folded
    dil = np.full(m, np.nan)
    eps = np.full(m, np.nan)
    dil[ok] = dilatation(abs_mu[ok])
    eps[ok] = epsilon_mu(abs_mu[ok])
    return mu, abs_mu, dil, eps, folded


def ref_corner_distortion(mapping):
    signed = ref_corner_angles(mapping.target) - ref_corner_angles(mapping.source)
    corner = np.abs(signed)
    return corner, signed, corner.mean(axis=1)


def ref_bound_violations(corner, eps_mu, folded, tol):
    ok = ~folded
    return int((corner[ok] > (eps_mu[ok] + tol)[:, None]).any(axis=1).sum())


def ref_fsum_stats(values):
    if values.size == 0:
        return None
    seq = values.tolist()
    n = len(seq)
    mean = math.fsum(seq) / n
    var = math.fsum((x - mean) * (x - mean) for x in seq) / n
    return FieldStats(mean=mean, max=float(values.max()), min=float(values.min()),
                      std=math.sqrt(var))


# ---------------------------------------------------------------------------
# comparison helpers
# ---------------------------------------------------------------------------


def bits(arr):
    arr = np.asarray(arr)
    return arr.dtype.str, arr.shape, arr.tobytes()


def outcome(fn, *args):
    """The value's bits, or the type and message of what ``fn`` raised."""
    try:
        with np.errstate(all="ignore"):
            value = fn(*args)
    except ValidationError as exc:
        return type(exc), str(exc), getattr(exc, "face", None)
    if isinstance(value, AffineMap2D):
        return [float(v).hex() for v in (value.a, value.b, value.c, value.d,
                                         value.p, value.q)]
    if isinstance(value, FieldStats):
        return [v.hex() for v in (value.mean, value.max, value.min, value.std)]
    return bits(value)


def csr_bits(matrix):
    return bits(matrix.data), bits(matrix.indices), bits(matrix.indptr)


# ---------------------------------------------------------------------------
# mesh strategy
# ---------------------------------------------------------------------------

# up to 1e60 the squared cross products stay finite; 1e-80 reaches subnormals
SCALES = [1.0, 1e-9, 3e7, 2.0 ** -40, 1e60, 1e-80]
JITTER = st.one_of(st.sampled_from([0.0, -0.0, 0.125, -0.2]), st.floats(-0.2, 0.2))
HEIGHT = st.one_of(st.sampled_from([0.0, -0.0, 0.5]), st.floats(-1.0, 1.0))
FLAT_Z = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e-13, 1e-13))
SLIVER_RATIOS = [None, 0.5, 1 - 1e-6, 1 + 1e-6, 2.0]


def _grid_faces(draw, rows, cols):
    faces = []
    for j in range(rows):
        for i in range(cols):
            a, b = j * (cols + 1) + i, j * (cols + 1) + i + 1
            c, d = b + cols + 1, a + cols + 1
            pair = [[a, b, c], [a, c, d]] if draw(st.booleans()) else [[a, b, d], [b, c, d]]
            for face in pair:  # any rotation keeps the orientation
                r = draw(st.integers(0, 2))
                faces.append(face[r:] + face[:r])
    return faces


def _coordinate(draw, index, n, jitter, scale):
    steps = np.asarray(draw(st.lists(jitter, min_size=n, max_size=n)))
    # index 0 keeps the jitter's signed zero
    return np.where(index == 0, steps * scale, (index + steps) * scale)


def _z_column(draw, layout, n, scale):
    if layout == "3-column-planar":
        return np.asarray(draw(st.lists(FLAT_Z, min_size=n, max_size=n))) * scale
    return np.asarray(draw(st.lists(HEIGHT, min_size=n, max_size=n))) * scale


@st.composite
def mesh_maps(draw, layout):
    """``(source, target)`` on one grid connectivity, not validated.

    The source is a jittered grid of 1 to 9 cells, two faces each, plus
    possibly a detached sliver face inside its bounding box whose area is
    0.5 to 2 times the degeneracy threshold.  The target is the source
    mirrored in x (on a planar source f_z then vanishes on every face) or a
    jittered grid in any layout, whose faces may fold.
    """
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    scale = draw(st.sampled_from(SCALES))
    n = (rows + 1) * (cols + 1)
    ii, jj = (g.ravel() for g in np.meshgrid(np.arange(cols + 1), np.arange(rows + 1)))
    faces = _grid_faces(draw, rows, cols)

    def grid(layout, jitter):
        xy = [_coordinate(draw, ii, n, jitter, scale), _coordinate(draw, jj, n, jitter, scale)]
        if layout != "2-column":
            xy.append(_z_column(draw, layout, n, scale))
        return np.column_stack(xy)

    src = grid(layout, JITTER)
    ratio = draw(st.sampled_from(SLIVER_RATIOS))
    if ratio is not None:
        eps = TriMesh(src, faces).area_epsilon
        base = 0.2 * scale
        height = 2.0 * ratio * eps / base
        x0, y0 = (cols / 2 - 0.1) * scale, rows / 2 * scale
        sliver = np.array([[x0, y0], [x0 + base, y0], [x0 + base / 2, y0 + height]])
        if src.shape[1] == 3:
            sliver = np.column_stack([sliver, np.full(3, src[0, 2])])
        faces = faces + [[n, n + 1, n + 2]]
        src = np.vstack([src, sliver])

    if draw(st.booleans()):
        dst = src.copy()
        dst[:, 0] = -dst[:, 0]
    else:
        wide = st.one_of(JITTER, st.floats(-0.9, 0.9))
        dst = grid(draw(st.sampled_from(LAYOUTS)), wide)
        if ratio is not None:  # the source's sliver, at a z inside the target's range
            sliver = src[n:, :2]
            if dst.shape[1] == 3:
                sliver = np.column_stack([sliver, np.full(3, dst[0, 2])])
            dst = np.vstack([dst, sliver])
    source, target = TriMesh(src, faces), TriMesh(dst, faces)
    if layout != "3d":
        assert source.dimension == 2
    return source, target


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def check_mesh_formulas(mesh):
    assert outcome(face_areas, mesh) == outcome(ref_face_areas, mesh)
    assert outcome(corner_angles, mesh) == outcome(ref_corner_angles, mesh)
    with np.errstate(all="ignore"):
        assert csr_bits(edge_weight_matrix(mesh, "cotangent")) == csr_bits(ref_cotangent_matrix(mesh))


def check_one_face_helpers(source, target, faces):
    for face in faces:
        corners = source.vertices[face]
        assert outcome(flatten_triangle, *corners) == outcome(ref_flatten_triangle, *corners)
        xy, uv = corners[:, :2], target.vertices[face][:, :2]
        assert outcome(affine_coefficients, xy, uv) == outcome(ref_affine_coefficients, xy, uv)


def check_beltrami_fields(mapping):
    field = face_beltrami(mapping)
    new = (field.mu, field.abs_mu, field.dilatation, field.eps_mu, field.folded)
    for got, want in zip(new, ref_face_beltrami(mapping)):
        assert bits(got) == bits(want)
    for values in (field.abs_mu[~field.folded], field.eps_mu[~field.folded]):
        assert outcome(_fsum_stats, values) == outcome(ref_fsum_stats, values)


def check_summary_fields(mapping):
    """``summarize``'s per-face fields and violation count, and the fields of
    ``corner_distortion``, against the references."""
    with np.errstate(all="ignore"):
        report = summarize(mapping)
        angular = corner_distortion(mapping)
        mu, abs_mu, dil, eps_mu, folded = ref_face_beltrami(mapping)
        corner, signed, face_avg = ref_corner_distortion(mapping)
    bf = report.beltrami
    pairs = {"mu": (bf.mu, mu), "abs_mu": (bf.abs_mu, abs_mu), "dilatation": (bf.dilatation, dil),
             "eps_mu": (bf.eps_mu, eps_mu), "folded": (bf.folded, folded)}
    for name, want in (("corner", corner), ("signed_corner", signed), ("face_avg", face_avg)):
        pairs[name] = (getattr(report.angular, name), want)
        pairs[f"corner_distortion {name}"] = (getattr(angular, name), want)
    for name, (got, want) in pairs.items():
        assert bits(got) == bits(want), name
    assert report.bound_violations == ref_bound_violations(corner, eps_mu, folded, BOUND_TOL)


@pytest.mark.parametrize("layout", LAYOUTS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_per_face_formulas_keep_every_bit(layout, data):
    source, target = data.draw(mesh_maps(layout))
    check_mesh_formulas(source)
    check_mesh_formulas(target)
    check_one_face_helpers(source, target, source.faces[-3:])
    try:
        mapping = MeshMap(source, target)
    except ValidationError:
        return  # a sliver below the threshold, or a target face collapsed
    check_beltrami_fields(mapping)
    check_summary_fields(mapping)


# non-negative corner values with zeros, ties and a subnormal
CORNER_VALUE = st.one_of(st.sampled_from([0.0, 5e-324, 0.1, 1.0, math.pi]),
                         st.floats(0.0, 4.0), st.floats(0.0, 1e300))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(CORNER_VALUE, min_size=3, max_size=3), min_size=1, max_size=40),
       tie=st.booleans())
def test_three_corner_mean_has_mean_bits(rows, tie):
    c = np.array(rows, dtype=np.float64)
    if tie:
        c[:, 2] = c[:, 0]
    c0, c1, c2 = c.T
    assert bits(((c0 + c1) + c2) / 3.0) == bits(c.mean(axis=1))


@contextlib.contextmanager
def face_blocks_of(size):
    """The per-face passes run in blocks of ``size`` faces inside this context."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qcdistort.mesh, "_FACE_BLOCK", size)
        yield


def test_summarize_gathers_each_mesh_once(monkeypatch):
    """One corner pass per mesh: ``summarize`` reads each mesh's face
    coordinates once, block by block in face order, and the blocks cover
    every face (the field functions it used to call read them twice)."""
    mesh = synth.grid_rectangle(3, 3)  # 8 faces: blocks of 2 give 4 per mesh
    target = TriMesh(mesh.vertices * [1.0, 0.5], mesh.faces)
    mapping = MeshMap(mesh, target)  # validation reads the coordinates too
    real = qcdistort.mesh._face_columns
    calls = []

    def spy(m, rows=slice(None)):
        cols = real(m, rows)
        calls.append((m, rows, len(cols[0])))
        return cols

    for module in (qcdistort.mesh, qcdistort.beltrami, qcdistort.angular, qcdistort.report):
        if hasattr(module, "_face_columns"):
            monkeypatch.setattr(module, "_face_columns", spy)
    for block, n_blocks in [(qcdistort.mesh._FACE_BLOCK, 1), (2, 4)]:
        calls.clear()
        with face_blocks_of(block):
            summarize(mapping)
        assert len(calls) == 2 * n_blocks
        for m in (mesh, target):
            gathered = [(rows, n) for who, rows, n in calls if who is m]
            starts = [rows.start for rows, _ in gathered]
            assert starts == [0, *(rows.stop for rows, _ in gathered[:-1])]
            assert [n for _, n in gathered] == [mapping.n_faces // n_blocks] * n_blocks


@pytest.mark.parametrize("layout", LAYOUTS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_per_face_formulas_keep_every_bit_in_small_blocks(layout, data):
    """Blocks of 5 faces cut the Hypothesis maps (up to 19 faces) at every
    position; every value keeps the bits of the whole-array references."""
    source, target = data.draw(mesh_maps(layout))
    with face_blocks_of(5):
        check_mesh_formulas(source)
        check_mesh_formulas(target)
        try:
            mapping = MeshMap(source, target)
        except ValidationError:
            return
        check_beltrami_fields(mapping)
        check_summary_fields(mapping)


def face_soup(n_faces, dim, folded, rng):
    """A map of ``n_faces`` faces, no two sharing a vertex, from a ``dim``-D
    source to a planar target whose face ``folded`` reverses orientation."""
    corners = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.3], [0.3, 1.0, -0.2]])[:, :dim]
    offsets = np.zeros((n_faces, 1, dim))
    offsets[:, 0, 0] = 2.0 * np.arange(n_faces)
    src = (corners + offsets + 0.1 * rng.standard_normal((n_faces, 3, dim))).reshape(-1, dim)
    dst = src[:, :2] + 0.05 * rng.standard_normal((3 * n_faces, 2))
    faces = np.arange(3 * n_faces).reshape(-1, 3)
    dst[faces[folded]] = dst[faces[folded][[0, 2, 1]]]  # corners 1 and 2 swapped
    return MeshMap(TriMesh(src, faces), TriMesh(dst, faces))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n_faces", [9, 10, 11, 14, 15, 16])
@pytest.mark.parametrize("edge", [-1, 0], ids=["fold-ends-block", "fold-starts-block"])
def test_fields_keep_every_bit_across_block_edges(dim, n_faces, edge):
    """Maps of ``k*B - 1``, ``k*B`` and ``k*B + 1`` faces, ``B = 5`` and ``k``
    2 and 3, with the folded face just before or just after the first block
    edge."""
    mapping = face_soup(n_faces, dim, 5 + edge, np.random.default_rng(n_faces * dim))
    with face_blocks_of(5):
        check_mesh_formulas(mapping.source)
        check_beltrami_fields(mapping)
        check_summary_fields(mapping)
        assert np.flatnonzero(face_beltrami(mapping).folded).tolist() == [5 + edge]


def test_summarize_transient_memory_has_a_fixed_bound():
    """``summarize``'s transient memory (the traced peak above what the
    report keeps) on 3D maps of 25,909 and 49,909 faces stays under 3 MiB
    and does not grow from the one to the other; it is 2.5 and 2.2 MiB,
    where whole-mesh corner passes took 4.5 at the smaller size and the
    three masked fields, taken up front, 2.9 at the larger.  The block pass
    holds the temporaries of one block whatever the face count, and the
    statistics take one field at a time.  Their temporaries, about 44 bytes
    a face, still grow with the face count: 4.4 MiB at 99,854 faces."""
    transients = []
    for n_vertices in (13_000, 25_000):
        source = synth.bumpy_disk(n_vertices)
        mapping = MeshMap(source, synth.perturbed_target(source, np.random.default_rng(5)))
        assert mapping.n_faces > 3 * qcdistort.mesh._FACE_BLOCK
        summarize(mapping)
        tracemalloc.start()
        try:
            report = summarize(mapping)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.face_count == mapping.n_faces
        transients.append((peak - kept) / 2 ** 20)
    assert max(transients) < 3.0
    assert transients[1] <= transients[0], transients


@pytest.mark.parametrize("dim", [2, 3])
def test_signed_zero_corner_keeps_its_bits(dim):
    # at corner 0, u = (1, +0, +0) and w = (-0, -1, -1): every product is
    # -0.0, and numpy's sum of them is +0.0
    corners = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-0.0, -1.0, -1.0]])[:, :dim]
    mesh = TriMesh(corners, [[0, 1, 2]])
    assert mesh.dimension == dim
    check_mesh_formulas(mesh)
    check_one_face_helpers(mesh, mesh, mesh.faces)
    mapping = MeshMap(mesh, TriMesh(2.0 * corners, mesh.faces))
    check_beltrami_fields(mapping)
    check_summary_fields(mapping)


def test_lone_negative_zero_weight_keeps_its_sign():
    # at corner 0, u = (1, 0) and w = (-5e-324, 1): the cotangent is
    # -5e-324 and half of it rounds to -0.0, the only term of edge (1, 2)
    mesh = TriMesh([[0.0, 0.0], [1.0, 0.0], [-5e-324, 1.0]], [[0, 1, 2]])
    half, inverse, _ = mesh._edges
    weight = _edge_weights(mesh, "cotangent")[inverse[1]]  # half-edge 1 is (1, 2)
    assert half[1].tolist() == [1, 2]
    assert weight == 0 and math.copysign(1.0, weight) == -1.0
    check_mesh_formulas(mesh)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.1, math.pi]),
                                 st.floats(0.0, 4.0)), min_size=0, max_size=60))
def test_fsum_stats_match_generator_variance(values):
    arr = np.asarray(values, dtype=np.float64)
    assert outcome(_fsum_stats, arr) == outcome(ref_fsum_stats, arr)


def test_fsum_stats_variance_squares_correctly_rounded(monkeypatch):
    """Where libm's ``** 2`` and ``x * x`` differ, the variance is the correctly
    rounded square."""
    d = np.random.default_rng(7).standard_normal(100_000)
    python = np.array([x ** 2 for x in d.tolist()])
    differ = d[d * d != python][:60].tolist()
    # the square root would hide a last-bit change, so std reads as variance
    monkeypatch.setattr(math, "sqrt", lambda v: v)
    for x in differ:
        values = np.array([x, -x])  # mean 0, variance x ** 2
        assert _fsum_stats(values).std.hex() == float(Fraction(x) ** 2).hex()


def test_square_is_correctly_rounded():
    """``np.square(d)`` is the exact square of ``d`` rounded once."""
    rng = np.random.default_rng(20261018)
    d = np.concatenate([
        rng.standard_normal(100_000),            # deviations from a mean
        rng.random(50_000) * math.pi - 1.5,      # angle-sized fields
        rng.standard_normal(50_000) * 10.0 ** rng.uniform(-150, 150, 50_000),
        [0.0, -0.0, 5e-324, -5e-324, 1e-160, 1.5, 3.0],
    ])
    squares = np.array([float(Fraction(x) ** 2) for x in d.tolist()])
    assert np.square(d).view(np.int64).tolist() == squares.view(np.int64).tolist()


# finite doubles: the whole range, subnormals, signed zeros and values near +-1e300
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-306, 1e-306),
    st.floats(1e299, 1e301).flatmap(lambda x: st.sampled_from([x, -x])),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, 2.0 ** -53]),
)
# the lengths at which n.bit_length(), and with it the chunk width, steps
LENGTHS = [1, 2, 3, 4, 255, 256, 257, 65_535, 65_536, 65_537]


@st.composite
def float_lists(draw):
    pattern = draw(st.lists(FINITE, min_size=1, max_size=6))
    length = draw(st.one_of(st.sampled_from(LENGTHS), st.integers(0, 40)))
    xs = (pattern * (length // len(pattern) + 1))[:length]
    if draw(st.booleans()):
        # exact cancellations, as in [x, y, -x]
        xs += draw(st.lists(FINITE, max_size=3)) + [-x for x in xs[::-2]]
    return xs


@settings(max_examples=300, deadline=None)
@given(xs=float_lists())
def test_exact_sum_has_fsum_bits(xs):
    try:
        want = math.fsum(xs)
    except OverflowError:
        return  # math.fsum returns no value to match
    assert _exact_sum(np.array(xs, dtype=np.float64)).hex() == want.hex()


@pytest.mark.parametrize("size", [3, 4])
@settings(max_examples=60, deadline=None)
@given(xs=float_lists())
def test_exact_sum_in_slices_has_fsum_bits(size, xs):
    """Slices of ``size`` values, each bincount pass over one slice, give the
    bits of the whole array summed at once."""
    try:
        want = math.fsum(xs)
    except OverflowError:
        return
    lengths, real_bincount = [], np.bincount

    def bincount(e, weights):
        lengths.append(e.size)
        return real_bincount(e, weights=weights)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qcdistort.report, "_SUM_SLICE", size)
        patch.setattr(np, "bincount", bincount)
        got = _exact_sum(np.array(xs, dtype=np.float64))
    assert got.hex() == want.hex()
    assert max(lengths, default=0) <= size


@pytest.mark.parametrize("xs", [
    [],
    [-0.0],                                    # math.fsum's zero is +0.0
    [1.0, 2.0 ** -53],                         # a tie, rounded to even
    [1.0, 2.0 ** -53, 2.0 ** -105],            # just above the tie
    [5e-324, 1e-310, -2.5e-320] * 100,         # subnormals only
    [2.2250738585072014e-308, -5e-324],        # a normal minus a subnormal
    # one exponent's values overflow a double summed alone; the total does not
    [1.7e308, -8e307, -8e307, 1.5e308],
], ids=["empty", "negative-zero", "tie", "above-tie", "subnormals", "normal-subnormal",
        "cancel-near-max"])
def test_exact_sum_fixed_cases(xs):
    assert _exact_sum(np.array(xs, dtype=np.float64)).hex() == math.fsum(xs).hex()


def test_fsum_stats_on_a_benchmark_sized_field():
    """49,909 values over twelve binades, as many as a benchmark map has faces."""
    rng = np.random.default_rng(49_909)
    values = np.abs(rng.standard_normal(49_909)) * 10.0 ** rng.uniform(-12, 0, 49_909)
    assert outcome(_fsum_stats, values) == outcome(ref_fsum_stats, values)


@pytest.mark.parametrize("xs, message", [
    ([math.nan], "cannot sum the non-finite value nan at index 0"),
    ([1.0, math.inf], "cannot sum the non-finite value inf at index 1"),
    ([1.0, 2.0, -math.inf, math.nan], "cannot sum the non-finite value -inf at index 2"),
])
def test_exact_sum_rejects_non_finite_values(xs, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        _exact_sum(np.array(xs))
