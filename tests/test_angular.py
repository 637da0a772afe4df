import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcdistort import (
    MeshMap,
    TriMesh,
    corner_distortion,
    face_beltrami,
    summarize,
)
from qcdistort.synth import perturbed_target, scaled_map_target, wavy_disk

from test_beltrami import closed_form_mu, orientation_preserving
from test_mesh import rotation_matrix

EQUILATERAL = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])


def single_map(src_tri, dst_tri):
    return MeshMap(TriMesh(src_tri, [[0, 1, 2]]), TriMesh(dst_tri, [[0, 1, 2]]))


def test_identity_is_zero():
    mesh = wavy_disk(200)
    field = corner_distortion(MeshMap(mesh, mesh))
    assert field.corner.max() == 0
    assert field.face_avg.max() == 0


def test_squashed_equilateral_corner_values():
    target = EQUILATERAL * np.array([1.0, 0.5])
    field = corner_distortion(single_map(EQUILATERAL, target))
    # oracle: angle differences of the two triangles computed via arccos
    expected = []
    for k in range(3):
        u = target[(k + 1) % 3] - target[k]
        w = target[(k + 2) % 3] - target[k]
        ang = math.acos(float(u @ w) / np.linalg.norm(u) / np.linalg.norm(w))
        expected.append(abs(ang - math.pi / 3))
    assert np.allclose(field.corner[0], expected, atol=1e-12)
    assert np.allclose(field.corner[0], [0.333474, 0.333474, 0.666947], atol=1e-6)
    assert field.face_avg[0] == pytest.approx(sum(expected) / 3, abs=1e-12)
    assert field.face_avg[0] == pytest.approx(0.444631, abs=1e-6)


def test_signed_corners_sum_to_zero():
    mesh = wavy_disk(300)
    flat = TriMesh(mesh.vertices[:, :2], mesh.faces)
    rng = np.random.default_rng(11)
    field = corner_distortion(MeshMap(flat, perturbed_target(flat, rng)))
    assert np.abs(field.signed_corner.sum(axis=1)).max() < 1e-9
    assert np.array_equal(field.corner, np.abs(field.signed_corner))


def test_similarity_invariance():
    mesh = wavy_disk(250)
    flat = TriMesh(mesh.vertices[:, :2], mesh.faces)
    target = scaled_map_target(flat, 1.4, 0.8)
    base = corner_distortion(MeshMap(flat, target))
    phi, s = 0.83, 1.7
    rot = s * np.array([[math.cos(phi), -math.sin(phi)],
                        [math.sin(phi), math.cos(phi)]])
    moved = TriMesh(target.vertices @ rot.T + np.array([2.0, -1.0]), target.faces)
    field = corner_distortion(MeshMap(flat, moved))
    assert np.abs(field.corner - base.corner).max() < 1e-9


def test_conformality_detection_both_directions():
    mesh = wavy_disk(150)
    flat = TriMesh(mesh.vertices[:, :2], mesh.faces)
    # conformal map (similarity): |mu| = 0 and corner distortions vanish
    phi = 0.4
    rot = 1.9 * np.array([[math.cos(phi), -math.sin(phi)],
                          [math.sin(phi), math.cos(phi)]])
    conf = MeshMap(flat, TriMesh(flat.vertices @ rot.T, flat.faces))
    assert face_beltrami(conf).abs_mu.max() < 1e-12
    assert corner_distortion(conf).corner.max() < 1e-9
    # non-conformal map: |mu| > 0 on every face and some corner moves
    stretched = MeshMap(flat, scaled_map_target(flat, 1.0, 0.5))
    assert face_beltrami(stretched).abs_mu.min() > 1e-12
    assert corner_distortion(stretched).corner.max(axis=1).min() > 1e-9


def test_per_face_bound_on_random_perturbations():
    mesh = wavy_disk(300)
    flat = TriMesh(mesh.vertices[:, :2], mesh.faces)
    rng = np.random.default_rng(5)
    for _ in range(10):
        mapping = MeshMap(flat, perturbed_target(flat, rng))
        bf = face_beltrami(mapping)
        ang = corner_distortion(mapping)
        assert bf.folded_count == 0
        assert (ang.corner <= bf.eps_mu[:, None] + 1e-9).all()
        # the mean cannot exceed the max
        assert (ang.face_avg <= bf.eps_mu + 1e-9).all()


@settings(max_examples=150, deadline=None)
@given(
    affine=orientation_preserving,
    coords=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
)
def test_bound_holds_for_any_affine_map_on_any_triangle(affine, coords):
    # the theorem-level property: every corner distortion of an
    # orientation-preserving affine map is at most 2*arcsin(|mu|), with mu
    # that of the drawn Jacobian, not the one the pipeline finds
    tri = np.array(coords).reshape(3, 2)
    area2 = abs(
        (tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1])
        - (tri[2, 0] - tri[0, 0]) * (tri[1, 1] - tri[0, 1])
    )
    assume(area2 > 1e-2)
    a, b, c, d = affine
    mapping = single_map(tri, tri @ np.array([[a, b], [c, d]]).T)
    field = corner_distortion(mapping)
    bound = 2.0 * np.arcsin(abs(closed_form_mu(affine)))
    assert field.corner.max() <= bound + 1e-9


@pytest.mark.parametrize("k", [1.5, 2.0, 4.0])
def test_bound_tightness_for_optimal_wedge(k):
    # corner at the origin bisected by the x-axis with half-angle
    # arctan(sqrt(K)) suffers exactly the full bound under (x, y) -> (x, y/K)
    half = math.atan(math.sqrt(k))
    src = np.array(
        [[0.0, 0.0],
         [math.cos(half), -math.sin(half)],
         [math.cos(half), math.sin(half)]]
    )
    dst = src * np.array([1.0, 1.0 / k])
    field = corner_distortion(single_map(src, dst))
    expected = 2.0 * math.asin((k - 1.0) / (k + 1.0))
    assert field.corner[0, 0] == pytest.approx(expected, abs=1e-6)
    bf = face_beltrami(single_map(src, dst))
    assert field.corner[0, 0] <= bf.eps_mu[0] + 1e-9
    assert bf.eps_mu[0] == pytest.approx(expected, abs=1e-12)


def stretched_wedges(k, theta, rotations=None):
    """One map of ``len(k)`` disjoint one-face triangles, face i sent by (x, y) -> (x, y / k[i]):
    corner 0 at the origin, bisected by the x axis, with opening ``theta[i]`` and unit edges.
    ``rotations``, a generator, moves each mesh by a random 3D rotation of its own."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    src = np.stack([np.zeros((len(k), 2)), np.column_stack([c, -s]), np.column_stack([c, s])],
                   axis=1).reshape(-1, 2)
    dst = src / np.column_stack([np.ones(src.shape[0]), np.repeat(k, 3)])
    if rotations is not None:
        src, dst = (np.column_stack([points, np.zeros(len(points))])
                    @ rotation_matrix(*rotations.uniform(-math.pi, math.pi, 3)).T
                    for points in (src, dst))
    faces = np.arange(3 * len(k)).reshape(-1, 3)
    return MeshMap(TriMesh(src, faces), TriMesh(dst, faces))


@pytest.mark.parametrize("rotated", [False, True], ids=["planar", "rotated-3d"])
def test_pipeline_attains_the_bound(rotated):
    """The report's corner 0 of the stretched wedge is 2 atan((K - 1) t / (K + t^2)),
    t = tan(theta / 2), and at theta* = 2 atan(sqrt(K)) it equals the face's eps_mu: the bound
    is sharp, and summarize attains it.  Rotating both meshes out of the plane (each by its own
    rotation) cannot move either number, since the canonical pose is a rigid motion.

    The tolerance is relative 1e-13 plus 1e-14 of the opening: corner 0 is the target's angle
    minus the source's, two angles below theta that each carry their own rounding (and that
    of the rotated vertices), so as K -> 1 its error is a few ulps of theta rather than of
    itself.  Over 30 seeds the excess over relative 1e-13 was at most 1.04 ulps of theta in
    the plane and 14.3 under the rotations; a pure relative 1e-13 fails on faces with
    K - 1 below about 1e-3 (2.9e-11 relative at K - 1 = 6.8e-6)."""
    rng = np.random.default_rng(20261020)
    k = np.exp(rng.uniform(0.0, 5.0, 2000))
    theta = rng.uniform(0.01, math.pi - 0.01, 2000)
    rotations = np.random.default_rng(7) if rotated else None
    t = np.tan(theta / 2)
    theta_star = 2 * np.arctan(np.sqrt(k))
    for opening in (theta, theta_star):
        report = summarize(stretched_wedges(k, opening, rotations))
        assert report.folded_count == 0 and report.bound_violations == 0
        corner = report.angular.corner[:, 0]
        want = (report.beltrami.eps_mu if opening is theta_star
                else 2 * np.arctan((k - 1) * t / (k + t * t)))
        assert (np.abs(corner - want) <= 1e-13 * want + 1e-14 * opening).all()
