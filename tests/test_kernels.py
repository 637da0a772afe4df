"""The column kernels and the vectorised variance keep every bit.

The per-face formulas read each coordinate as its own column and write
their products out per component; the variance squares with
``np.square``, whose IEEE products are correctly rounded.  The references
below are the implementations these replaced: per-face coordinates stacked
on a last axis with numpy's ``sum``, ``cross`` and ``linalg.norm`` over it
(each corner's own dot, and corner 0's ``|u x w|`` at every corner),
corner fields as ``(m, 3)`` columns with ``mean(axis=1)`` and a row mask
for the bound check, and a Python generator for the variance, which
squares with ``*`` as the package does.  ``summarize``'s fields are held to
them as well as the public field functions.  Meshes are drawn in the three
vertex layouts the package reads (2 columns, 3 columns with z inside the
planar tolerance, 3D), with folded, anti-conformal and collapsed target
faces, repeated and signed-zero coordinates, and a sliver face near the
degeneracy threshold.  The statistics' vectorised exact sum is held to
``math.fsum``, bit for bit, on sums its first round decides and on sums
near a rounding midpoint, which it leaves to ``math.fsum``, and the squares
to ``Fraction``.  The per-face
passes run in blocks of faces; the fields are also held to the references
with blocks of 5 faces, cut at every position of small maps, and with a
source whose kept corner terms were built in blocks of another size, and
``summarize`` is held to a working set no larger at 99,854 faces than at
49,909 and 25,909, with folded faces and without.
"""

import contextlib
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import qcdistort.angular
import qcdistort.beltrami
import qcdistort.mesh
import qcdistort.report
from qcdistort import (
    DegenerateFaceError,
    DomainError,
    MeshMap,
    TriMesh,
    ValidationError,
    corner_angles,
    corner_distortion,
    face_areas,
    face_beltrami,
    summarize,
    synth,
)
from qcdistort.mesh import _half_edges, _require_area
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


def ref_corner_dots_and_cross(tri):
    """Each corner's own ``u . w``, and corner 0's ``|u x w|``, which every corner shares."""
    terms = [ref_corner_terms(tri, k) for k in range(3)]
    return [dot for dot, _ in terms], terms[0][1]


def ref_corner_angles(mesh, area_test=True):
    """The angles, after the area test unless ``area_test`` is false (a map's target)."""
    dots, cross = ref_corner_dots_and_cross(ref_face_coords(mesh))
    if area_test:
        _require_area(mesh, 0.5 * cross)
    return np.column_stack([np.arctan2(cross, dot) for dot in dots])


def ref_cotangent_matrix(mesh):
    faces = mesh.faces
    dots, cross = ref_corner_dots_and_cross(ref_face_coords(mesh))
    rows_list, cols_list, vals_list = [], [], []
    for k, dot in enumerate(dots):
        i = faces[:, (k + 1) % 3]
        j = faces[:, (k + 2) % 3]
        rows_list += [i, j]
        cols_list += [j, i]
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
    first = np.unique(mesh._edges[0], return_index=True)[1]  # one half-edge per edge
    i, j = (ends[first] for ends in _half_edges(mesh.faces))
    weights = _edge_weights(mesh, kind)
    n = mesh.n_vertices
    return sparse.coo_matrix(
        (np.concatenate([weights, weights]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(n, n),
    ).tocsr()


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


def ref_jacobian_fields(a, b, c, d):
    """``(mu, |mu|, K, eps_mu, folded)``: ``mu = f_zbar / f_z``, the plain quotient on every
    face; ``K = 1 + 2|f_zbar|(|f_z| + |f_zbar|) / det`` and ``eps_mu = 2 atan2(|f_zbar|,
    sqrt(det))`` on faces with ``det = ad - bc > 0``, NaN on the others, which are folded."""
    fz = 0.5 * ((a + d) + 1j * (c - b))
    fzb = 0.5 * ((a - d) + 1j * (c + b))
    det = a * d - b * c
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mu = fzb / fz
    folded = ~(det > 0)
    ok = ~folded
    dil = np.full(det.shape, np.nan)
    eps = np.full(det.shape, np.nan)
    p, q = np.abs(fz[ok]), np.abs(fzb[ok])
    dil[ok] = 1.0 + 2.0 * q * (p + q) / det[ok]
    eps[ok] = 2.0 * np.arctan2(q, np.sqrt(det[ok]))
    return mu, np.abs(mu), dil, eps, folded


def ref_face_beltrami(mapping):
    """The Jacobian fields, with every target face whose area is not above the target's
    threshold folded too, with NaN K and eps_mu."""
    with np.errstate(divide="ignore", invalid="ignore"):  # a 3D face with P0 = P1 has no pose
        a, b, c, d = ref_affine_arrays(ref_face_coords_2d(mapping.source),
                                       ref_face_coords_2d(mapping.target))
    mu, abs_mu, dil, eps, folded = ref_jacobian_fields(a, b, c, d)
    collapsed = ~(ref_face_areas(mapping.target) > mapping.target.area_epsilon)
    dil[collapsed] = eps[collapsed] = np.nan
    return mu, abs_mu, dil, eps, folded | collapsed


def ref_corner_distortion(mapping):
    signed = ref_corner_angles(mapping.target, False) - ref_corner_angles(mapping.source)
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
    jittered grid in any layout, whose faces may fold; the target's copy of
    the sliver may collapse, its third corner moved onto the first edge's
    midpoint, its second onto its first, or both.
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
    if ratio is not None:
        collapse = draw(st.sampled_from([None, "onto-edge", "first-edge-zero", "one-point"]))
        if collapse == "onto-edge":
            dst[n + 2] = 0.5 * (dst[n] + dst[n + 1])
        elif collapse is not None:
            dst[n + 1:n + (2 if collapse == "first-edge-zero" else 3)] = dst[n]
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
    try:
        mapping = MeshMap(source, target)
    except ValidationError:
        return  # a source sliver below the threshold; a collapsed target face is folded
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
    """One corner pass per mesh: on a fresh source's first map, ``summarize``
    reads each mesh's face coordinates once, block by block in face order,
    and the blocks cover every face (the field functions it used to call read
    them twice); a second map of the same source reads its target's alone,
    since the source keeps its corner terms."""
    grid = synth.grid_rectangle(3, 3)  # 8 faces: blocks of 2 give 4 per mesh
    real = qcdistort.mesh._face_columns
    calls = []

    def spy(m, rows):
        cols = real(m, rows)
        calls.append((m, rows, len(cols[0])))
        return cols

    for module in (qcdistort.mesh, qcdistort.beltrami, qcdistort.angular, qcdistort.report):
        if hasattr(module, "_face_columns"):
            monkeypatch.setattr(module, "_face_columns", spy)
    for block, n_blocks in [(qcdistort.mesh._FACE_BLOCK, 1), (2, 4)]:
        mesh = TriMesh(grid.vertices, grid.faces)  # a fresh source, with no corner terms kept
        for squeeze, gathered_meshes in [(0.5, 2), (0.25, 1)]:
            target = TriMesh(grid.vertices * [1.0, squeeze], grid.faces)
            # a fresh map, whose pass has not run; validation reads the coordinates too
            mapping = MeshMap(mesh, target)
            calls.clear()
            with face_blocks_of(block):
                summarize(mapping)
            assert len(calls) == gathered_meshes * n_blocks
            for m in (mesh, target)[2 - gathered_meshes:]:
                gathered = [(rows, n) for who, rows, n in calls if who is m]
                starts = [rows.start for rows, _ in gathered]
                assert starts == [0, *(rows.stop for rows, _ in gathered[:-1])]
                assert [n for _, n in gathered] == [mapping.n_faces // n_blocks] * n_blocks


@pytest.mark.parametrize("dim", [2, 3])
def test_summarize_computes_one_cross_per_face(monkeypatch, dim):
    """One ``|u x w|`` per face: ``summarize`` calls ``_cross_norm`` once per
    mesh per block, for the block's faces, and not once per corner; the
    source only on its first map, whose corner terms it keeps."""
    grid = synth.grid_rectangle(3, 3)  # 8 faces: blocks of 2 give 4 per mesh
    xy = grid.vertices
    real = qcdistort.mesh._cross_norm
    sizes = []

    def spy(u, w):
        sizes.append(len(u[0]))
        return real(u, w)

    monkeypatch.setattr(qcdistort.mesh, "_cross_norm", spy)
    for block, n_blocks in [(qcdistort.mesh._FACE_BLOCK, 1), (2, 4)]:
        mesh = TriMesh(np.column_stack([xy, xy[:, 0] ** 2])[:, :dim], grid.faces)
        assert mesh.dimension == dim
        for squeeze, crossed_meshes in [(0.5, 2), (0.25, 1)]:
            # validation measures the areas, one cross per block too
            mapping = MeshMap(mesh, TriMesh(xy * [1.0, squeeze], grid.faces))
            sizes.clear()
            with face_blocks_of(block):
                summarize(mapping)
            assert sizes == [mapping.n_faces // n_blocks] * (crossed_meshes * n_blocks)


@pytest.mark.parametrize("dim", [2, 3])
def test_kept_corner_terms_are_read_only(dim):
    """The source keeps its ``(3, m)`` angles and its planar frame, read-only,
    with a 3D frame's ``y1`` the scalar 0.0; the target keeps none."""
    mapping = face_soup(11, dim, 3, np.random.default_rng(dim))
    summarize(mapping)
    angles, frame = mapping.source._corner_terms
    arrays = [angles, *(c for c in frame if isinstance(c, np.ndarray))]
    assert angles.shape == (3, mapping.n_faces)
    assert len(arrays) == (5 if dim == 2 else 4)
    if dim == 3:
        assert frame[1] == 0.0 and type(frame[1]) is float
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[..., 0] = 1.0
    assert "_corner_terms" not in vars(mapping.target)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kept_in, read_in", [(5, 8_192), (8_192, 5), (3, 7)])
def test_fields_from_terms_kept_in_other_blocks_keep_every_bit(dim, kept_in, read_in):
    """A source's corner terms built in blocks of one size serve maps whose
    pass runs in blocks of another, and every value keeps the reference bits."""
    for folded in (5, 13):
        mapping = face_soup(16, dim, folded, np.random.default_rng(folded * dim))
        with face_blocks_of(kept_in):
            mapping.source._corner_terms
        with face_blocks_of(read_in):
            check_beltrami_fields(mapping)
            check_summary_fields(mapping)


def test_a_source_that_fails_validation_keeps_no_corner_terms():
    degenerate = TriMesh([[0.0, 0.0], [1e-16, 0.0], [0.0, 1.0]], [[0, 1, 2]])
    target = TriMesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
    for attempt in (lambda: MeshMap(degenerate, target), lambda: corner_angles(degenerate),
                    lambda: degenerate._corner_terms):
        with pytest.raises(DegenerateFaceError):
            attempt()
        assert "_corner_terms" not in vars(degenerate)
    # both faces run along the edge (0, 1) from 0 to 1
    flipped = TriMesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [[0, 1, 2], [0, 1, 3]])
    with pytest.raises(ValidationError, match="inconsistent face orientation"):
        MeshMap(flipped, TriMesh(2.0 * flipped.vertices, flipped.faces))
    assert "_corner_terms" not in vars(flipped)


def test_corner_angles_is_a_copy_no_map_reads():
    """``corner_angles`` returns a writable copy of the kept angles: writing
    to it changes neither a later map's fields nor the next call's angles."""
    mapping = face_soup(12, 3, 4, np.random.default_rng(12))
    angles = corner_angles(mapping.source)
    assert angles.flags.writeable
    assert bits(angles) == bits(ref_corner_angles(mapping.source))
    angles[...] = 0.0
    check_beltrami_fields(mapping)
    check_summary_fields(mapping)
    assert bits(corner_angles(mapping.source)) == bits(ref_corner_angles(mapping.source))


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
    report keeps) on 3D maps of 25,909, 49,909 and 99,854 faces stays under
    3 MiB and does not grow with the face count (by 4 KiB at most from the
    second to the third); it is 0.53, 0.20 and 0.20 MiB, where whole-mesh
    corner passes took 4.5 at the smallest size and whole-field statistics,
    histograms and bound check 2.3 at the largest.
    The traced map's source already keeps its corner terms, and the block
    pass holds the temporaries of one block whatever the face count; the
    statistics' terms, the histograms' counts and the bound check run in
    blocks of faces too, one field at a time, with no masked copy when no
    face is folded."""
    transients = []
    for n_vertices in (13_000, 25_000, 50_000):
        source = synth.bumpy_disk(n_vertices)
        target = synth.perturbed_target(source, np.random.default_rng(5))
        summarize(MeshMap(source, target))
        mapping = MeshMap(source, target)  # a fresh map: the traced call runs the pass
        assert mapping.n_faces > 3 * qcdistort.mesh._FACE_BLOCK
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
    # the exact sums' Python ints differ by a few bytes with the data, not with the face count
    assert transients[2] < transients[1] + 2 ** -8, transients


def test_summarize_transient_memory_with_folds_has_a_fixed_bound():
    """The same bound on planar maps with folds: ``irregular_disk`` mapped onto
    itself mirrored beyond x = 0.9 max, with 491, 934 and 1,870 folded faces of
    25,909, 49,909 and 99,854.  Each block is masked on its own, so the
    transient is 0.53, 0.31 and 0.31 MiB, where a masked copy of each field
    took 0.53, 0.79 and 1.59."""
    transients = []
    for n_vertices in (13_000, 25_000, 50_000):
        source = synth.irregular_disk(n_vertices)
        verts = source.vertices.copy()
        edge = 0.9 * verts[:, 0].max()
        beyond = verts[:, 0] > edge
        verts[beyond, 0] = 2.0 * edge - verts[beyond, 0]
        target = TriMesh(verts, source.faces)
        summarize(MeshMap(source, target))
        mapping = MeshMap(source, target)  # a fresh map: the traced call runs the pass
        tracemalloc.start()
        try:
            report = summarize(mapping)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.folded_count > mapping.n_faces // 60
        transients.append((peak - kept) / 2 ** 20)
    assert max(transients) < 3.0
    assert transients[1] <= transients[0], transients
    assert transients[2] < transients[1] + 2 ** -8, transients


@pytest.mark.parametrize("dim", [2, 3])
def test_signed_zero_corner_keeps_its_bits(dim):
    # at corner 0, u = (1, +0, +0) and w = (-0, -1, -1): every product is
    # -0.0, and numpy's sum of them is +0.0
    corners = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-0.0, -1.0, -1.0]])[:, :dim]
    mesh = TriMesh(corners, [[0, 1, 2]])
    assert mesh.dimension == dim
    check_mesh_formulas(mesh)
    mapping = MeshMap(mesh, TriMesh(2.0 * corners, mesh.faces))
    check_beltrami_fields(mapping)
    check_summary_fields(mapping)


# an exact right angle at corner 1 or 2, whose u . w sums signed-zero products, or
# cancelling ones, to +0.0 (a negated sum, -(+0.0), would be -0.0)
RIGHT_ANGLE_AT = {
    (2, 1): [[0.0, 0.0], [1.0, -0.0], [1.0, 1.0]],
    (2, 2): [[-0.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
    (3, 1): [[0.0, 0.0, 0.0], [1.0, -0.0, 0.0], [1.0, 1.0, 1.0]],
    (3, 2): [[0.0, -0.0, 0.0], [2.0, 2.0, -0.0], [0.0, 1.0, 1.0]],
}


@pytest.mark.parametrize("dim, k", sorted(RIGHT_ANGLE_AT))
def test_right_angle_at_a_later_corner_has_a_positive_zero_dot(dim, k):
    corners = np.array(RIGHT_ANGLE_AT[dim, k])
    mesh = TriMesh(corners, [[0, 1, 2]])
    assert mesh.dimension == dim
    _, *dots = qcdistort.mesh._face_terms(mesh)
    assert bits(dots[k]) == bits([0.0])
    assert corner_angles(mesh)[0, k].hex() == (math.pi / 2).hex()
    weights = _edge_weights(mesh, "cotangent")  # the edge opposite corner k weighs +0.0
    assert bits(weights[weights == 0]) == bits([0.0])
    check_mesh_formulas(mesh)
    mapping = MeshMap(mesh, TriMesh(2.0 * corners, mesh.faces))
    check_beltrami_fields(mapping)
    check_summary_fields(mapping)


# faces with integer coordinates, whose dots and |u x w| are exact: a 3-4-5 triangle
# and a lattice sliver, planar and 3D (|u x w| = 12, 999, 12 and 68)
INTEGER_FACES = [
    [[0, 0], [3, 0], [0, 4]],
    [[0, 0], [1000, 1], [2001, 3]],
    [[1, 1, 1], [4, 1, 1], [1, 1, 5]],
    [[5, -2, 1], [53, -1, 4], [101, -1, 8]],
]


@pytest.mark.parametrize("first", range(3))
@pytest.mark.parametrize("corners", INTEGER_FACES,
                         ids=["345-2d", "sliver-2d", "345-3d", "sliver-3d"])
def test_integer_faces_measure_the_exact_angles(corners, first):
    """Every corner angle is within an ulp of ``math.atan2`` of the exact
    integer ``|u x w|`` and ``u . w``, with the face listed from each of
    its vertices."""
    corners = corners[first:] + corners[:first]
    mesh = TriMesh(np.array(corners, dtype=np.float64), [[0, 1, 2]])
    assert mesh.dimension == len(corners[0])
    got = corner_angles(mesh)[0]
    for k in range(3):
        p, q, r = corners[k], corners[(k + 1) % 3], corners[(k + 2) % 3]
        u, w = [b - a for a, b in zip(p, q)], [c - a for a, c in zip(p, r)]
        dot = sum(a * b for a, b in zip(u, w))
        if len(u) == 2:
            cross2 = (u[0] * w[1] - u[1] * w[0]) ** 2
        else:
            cross2 = sum((u[i - 2] * w[i - 1] - u[i - 1] * w[i - 2]) ** 2 for i in range(3))
        cross = math.isqrt(cross2)
        assert cross * cross == cross2
        want = math.atan2(cross, dot)
        assert abs(got[k] - want) <= math.ulp(want), (k, got[k], want)


# sliver faces, and their angles from a 200-bit mpmath evaluation at the same float
# vertices, rounded to the nearest double; the worst errors measured are 21 ulps (3D,
# corner 0) and 129 ulps (planar, corner 1), where the cancellation in |u x w| of
# nearly parallel edges costs digits in the small angles
SLIVERS = [
    ([[0.1, 0.2, 0.3], [3.1, 1.7, 1.05], [1.3, 0.8, 0.61]],
     [0.007087260027570289, 0.004737396715051169, 3.1297679968471717], 32),
    ([[0.1, 0.2], [3.1, 1.7], [1.3, 0.801]],
     [0.000666444419827165, 0.0004445432025459731, 3.14048166596742], 192),
]


@pytest.mark.parametrize("corners, exact, ulps", SLIVERS, ids=["3d", "2d"])
def test_sliver_angles_match_the_mpmath_values(corners, exact, ulps):
    got = corner_angles(TriMesh(corners, [[0, 1, 2]]))[0]
    for k in range(3):
        assert abs(got[k] - exact[k]) <= ulps * math.ulp(exact[k]), (k, got[k], exact[k])


def test_lone_negative_zero_weight_keeps_its_sign():
    # at corner 0, u = (1, 0) and w = (-5e-324, 1): the cotangent is
    # -5e-324 and half of it rounds to -0.0, the only term of edge (1, 2)
    mesh = TriMesh([[0.0, 0.0], [1.0, 0.0], [-5e-324, 1.0]], [[0, 1, 2]])
    tails, heads = _half_edges(mesh.faces)
    weight = _edge_weights(mesh, "cotangent")[mesh._edges[0][1]]  # half-edge 1 is (1, 2)
    assert (tails[1], heads[1]) == (1, 2)
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
# lengths near 2 ** 8 and 2 ** 16, among them those at which (n + 2).bit_length(),
# and with it the bits each extraction round takes, steps
LENGTHS = [1, 2, 3, 4, 254, 255, 256, 257, 65_534, 65_535, 65_536, 65_537]


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


def fsum_calls(monkeypatch):
    """Count the calls to ``math.fsum``, ``_exact_sum``'s fallback, which keeps working."""
    calls, real = [], math.fsum

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(math, "fsum", spy)
    return calls


DBL_MAX = 1.7976931348623157e308


@settings(max_examples=200, deadline=None)
@given(top=st.lists(st.sampled_from([DBL_MAX, -DBL_MAX, DBL_MAX / 2, -DBL_MAX / 2]),
                    min_size=1, max_size=3),
       cancel=st.booleans(),
       tiny=st.lists(st.sampled_from([5e-324, -5e-324, 2.0 ** -1060, -(2.0 ** -1060)]),
                     max_size=4),
       xs=float_lists())
@example(top=[DBL_MAX, -DBL_MAX / 2, -DBL_MAX / 2], cancel=False, tiny=[5e-324, 2.0 ** -1060],
         xs=[])
def test_exact_sum_in_the_top_binade_has_fsum_bits(top, cancel, tiny, xs):
    """A value in the top binade would overflow ``sigma``: ``math.fsum``
    decides, also on the subnormal bits, which are the whole sum when the
    large values cancel."""
    xs = top + ([-x for x in top] if cancel else []) + tiny + xs
    try:
        want = math.fsum(xs)
    except OverflowError:
        return
    with pytest.MonkeyPatch.context() as patch:
        fallback = fsum_calls(patch)
        got = _exact_sum(np.array(xs, dtype=np.float64))
    assert got.hex() == want.hex()
    assert fallback


@pytest.mark.parametrize("seed", range(5))
def test_exact_sum_over_many_rounds_has_fsum_bits(seed):
    """One value in each binade from ``2 ** -1074`` to ``2 ** 1000``, some
    cancelled, which a full extraction would take a round per 40 binades
    for: about fifty rounds.  ``_exact_sum`` stops after its first round."""
    rng = np.random.default_rng(seed)
    exponents = np.arange(-1073, 1001)
    xs = np.ldexp(rng.uniform(0.5, 1.0, exponents.size) * rng.choice([-1.0, 1.0], exponents.size),
                  exponents)
    xs = np.concatenate([xs, -xs[rng.integers(0, xs.size, 40)]])
    rng.shuffle(xs)
    assert _exact_sum(xs).hex() == math.fsum(xs.tolist()).hex()


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


@pytest.mark.parametrize("xs", [
    [1.0, 2.0 ** -53],                         # a tie, rounded to even
    [1.0, 2.0 ** -53, 2.0 ** -105],            # just above the tie
    [1.0, 2.0 ** -53, 2.0 ** -160],            # above it by less than the residuals' sum keeps
], ids=["tie", "above-tie", "above-tie-by-a-lost-bit"])
def test_exact_sum_decides_an_open_sum_by_the_full_extraction(monkeypatch, xs):
    """Sums within the slack of a rounding midpoint: the first round's ends
    round to two doubles, and ``math.fsum`` decides."""
    want = math.fsum(xs)
    fallback = fsum_calls(monkeypatch)
    assert _exact_sum(np.array(xs)).hex() == want.hex()
    assert fallback


def test_exact_sum_fallback_keeps_the_folded_mask_and_the_mean(monkeypatch):
    """The kept values' squares sum to the tie ``1 + 2 ** -53``: ``math.fsum``
    decides over the squares of the kept values alone, not the folded
    infinities and values whose squares overflow."""
    values = np.array([math.inf, 1.0, 1e300, 2.0 ** -27, -math.inf, 2.0 ** -27, -1e300])
    folded = np.isin(np.arange(values.size), [0, 2, 4, 6])
    want = math.fsum([1.0, 2.0 ** -54, 2.0 ** -54])
    fallback = fsum_calls(monkeypatch)
    assert _exact_sum(values, mean=0.0, folded=folded).hex() == want.hex()
    assert fallback


@settings(max_examples=200, deadline=None)
@given(exponent=st.integers(-900, 900), mantissa=st.integers(0, 2 ** 52 - 1),
       offset=st.integers(-4, 4), noise=st.lists(FINITE, max_size=12), order=st.randoms())
def test_exact_sum_near_a_midpoint_takes_the_full_extraction(exponent, mantissa, offset,
                                                             noise, order):
    """A double ``b`` in ``[2 ** exponent, 2 ** (exponent + 1))``, half its
    ulp, and ``offset`` units of ``2 ** (exponent - 113)``, with values that
    cancel in pairs.  The sum is within half the slack (at least ``9 * 2 **
    (exponent - 101)`` for 3 or more terms) of the midpoint above ``b``, so
    the ends of the first round straddle it, and ``math.fsum`` decides."""
    xs = [math.ldexp(2 ** 52 + mantissa, exponent - 52), math.ldexp(1.0, exponent - 53),
          math.ldexp(offset, exponent - 113)] + noise + [-x for x in noise]
    order.shuffle(xs)
    try:
        want = math.fsum(xs)
    except OverflowError:
        return
    with pytest.MonkeyPatch.context() as patch:
        fallback = fsum_calls(patch)
        assert _exact_sum(np.array(xs)).hex() == want.hex()
    assert fallback


@pytest.mark.parametrize("n", [2, 40, 8_192])
def test_exact_sum_of_tiny_values_rounds_its_slack_up(monkeypatch, n):
    """Values near 1e-300 and subnormals: the slack ``n * n * 2 ** (top -
    105)`` is a fraction of ``2 ** -1074`` for the smaller blocks and is
    rounded up to whole units; the first round still decides the sum."""
    rng = np.random.default_rng(n)
    xs = rng.uniform(-1.0, 2.0, n) * 1e-300
    xs[::3] = rng.integers(-2 ** 40, 2 ** 40, xs[::3].size) * 5e-324
    top = math.frexp(float(np.abs(xs).max()))[1] + (n + 2).bit_length()
    assert top - 105 + 1074 < 0  # the slack's exponent in units of 2 ** -1074
    want = math.fsum(xs.tolist())
    fallback = fsum_calls(monkeypatch)
    assert _exact_sum(xs).hex() == want.hex()
    assert not fallback


@pytest.fixture(scope="module")
def bumpy_map():
    source = synth.bumpy_disk(25_000)
    return MeshMap(source, synth.perturbed_target(source, np.random.default_rng(5)))


@pytest.mark.parametrize("field", ["benchmark-sized", *qcdistort.report.FIELD_NAMES])
def test_exact_sums_of_benchmark_fields_take_one_round(monkeypatch, bumpy_map, field):
    """The 49,909 values above and the three fields of a 49,909-face
    ``bumpy_disk`` map: no sum of their values or squared deviations is left
    open, so the first round is the path the benchmark measures."""
    if field == "benchmark-sized":
        rng = np.random.default_rng(49_909)
        values = np.abs(rng.standard_normal(49_909)) * 10.0 ** rng.uniform(-12, 0, 49_909)
    else:
        values = qcdistort.report._field(field, *bumpy_map._fields)
    assert values.size == 49_909
    want = outcome(ref_fsum_stats, values)
    fallback = fsum_calls(monkeypatch)
    assert outcome(_fsum_stats, values) == want
    assert not fallback


@pytest.mark.parametrize("xs, message", [
    ([math.nan], "cannot sum the non-finite value nan at index 0"),
    ([1.0, math.inf], "cannot sum the non-finite value inf at index 1"),
    ([1.0, 2.0, -math.inf, math.nan], "cannot sum the non-finite value -inf at index 2"),
])
def test_exact_sum_rejects_non_finite_values(xs, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        _exact_sum(np.array(xs))
