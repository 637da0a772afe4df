import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcdistort import (
    DomainError,
    MeshMap,
    TriMesh,
    ValidationError,
    dilatation,
    epsilon_mu,
    face_beltrami,
)
from qcdistort.synth import scaled_map_target, wavy_disk
from qcdistort.theory import max_half_angle_deviation

from test_mesh import rotation_matrix

finite = st.floats(-3.0, 3.0, allow_nan=False)
UNIT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def jacobian_from_derivatives(mod_fz, arg_fz, ratio, arg_fzb):
    """Jacobian (a, b, c, d) of an orientation-preserving linear map with
    |fzbar| = ratio * |fz| < |fz|."""
    fz = mod_fz * cmath.exp(1j * arg_fz)
    fzb = ratio * mod_fz * cmath.exp(1j * arg_fzb)
    return fz.real + fzb.real, fzb.imag - fz.imag, fz.imag + fzb.imag, fz.real - fzb.real


orientation_preserving = st.builds(
    jacobian_from_derivatives,
    mod_fz=st.floats(0.5, 2.0),
    arg_fz=st.floats(-math.pi, math.pi),
    ratio=st.floats(0.0, 0.9),
    arg_fzb=st.floats(-math.pi, math.pi),
)


def apply(jacobian, points, shift=(0.0, 0.0)):
    """``points`` (n, 2) under (x, y) -> (a x + b y, c x + d y) + ``shift``."""
    a, b, c, d = jacobian
    return np.asarray(points, dtype=float) @ np.array([[a, b], [c, d]]).T + shift


def closed_form_mu(jacobian) -> complex:
    """mu = f_zbar / f_z of the Jacobian (a, b, c, d), in Python's complex arithmetic."""
    a, b, c, d = jacobian
    return complex(a - d, c + b) / complex(a + d, c - b)


def one_face(src, dst):
    """The Beltrami field of the one-face map sending triangle ``src`` onto ``dst``."""
    return face_beltrami(MeshMap(TriMesh(src, [[0, 1, 2]]), TriMesh(dst, [[0, 1, 2]])))


def lift(points, rotation, shift):
    """Planar ``points`` (n, 2) at z = 0, rotated and shifted in 3D."""
    return np.column_stack([points, np.zeros(len(points))]) @ rotation.T + shift


class TestFlattenTriangle:
    """A 3D face reaches the plane by a rigid motion, in the canonical pose:
    corner 0 at the origin, corner 1 on the positive x axis, corner 2 above it."""

    def test_axis_aligned(self):
        field = one_face([[0, 0, 0], [1, 0, 0], [0, 0, 1]], UNIT)
        assert field.abs_mu.tolist() == [0.0] and field.folded.tolist() == [False]

    def test_planar_canonical_pose(self):
        pose = np.array([[0, 0], [2, 0], [1, math.sqrt(3)]])
        tilted = lift(pose, rotation_matrix(0.3, -1.1, 2.0), [0.5, -1.0, 2.0])
        assert one_face(tilted, pose).abs_mu[0] < 1e-15
        mirrored = one_face(tilted, pose * [1, -1])
        assert mirrored.folded.tolist() == [True] and mirrored.abs_mu[0] > 1

    @settings(max_examples=50, deadline=None)
    @given(
        coords=st.lists(finite, min_size=9, max_size=9),
        ax=st.floats(-math.pi, math.pi),
        ay=st.floats(-math.pi, math.pi),
        az=st.floats(-math.pi, math.pi),
    )
    def test_rigid_invariance_and_isometry(self, coords, ax, ay, az):
        tri = np.array(coords).reshape(3, 3)
        e1, e2 = tri[1] - tri[0], tri[2] - tri[0]
        assume(np.linalg.norm(np.cross(e1, e2)) > 1e-3)
        assume(TriMesh(tri, [[0, 1, 2]]).dimension == 3)
        moved = tri @ rotation_matrix(ax, ay, az).T + np.array([0.3, -0.7, 1.1])
        # isometry: the face and its moved copy reach the plane in one pose
        assert one_face(tri, moved).abs_mu[0] < 1e-9
        # rigid invariance: the same face, moved, gives the same |mu| onto a target
        target = [[0.0, 0.0], [1.0, 0.2], [0.3, 0.8]]
        assert abs(one_face(moved, target).abs_mu[0] - one_face(tri, target).abs_mu[0]) < 1e-9


class TestAffineCoefficients:
    """A one-face map's mu is that of the affine map sending its source onto its target."""

    def test_unit_basis_source(self):
        assert one_face(UNIT, [[0, 0], [2, 0], [0, 1]]).mu.tolist() == [1 / 3]

    def test_identity(self):
        tri = [[0.2, 0.1], [1.3, 0.4], [-0.5, 1.0]]
        assert one_face(tri, tri).abs_mu[0] < 1e-15

    def test_rotation_case(self):
        # (x, y) -> (1 - y, 1 + x): a quarter turn and a shift, conformal
        field = one_face(UNIT, [[1, 1], [1, 2], [0, 1]])
        assert field.abs_mu[0] < 1e-15 and not field.folded[0]

    @settings(max_examples=50, deadline=None)
    @given(coords=st.lists(finite, min_size=12, max_size=12))
    def test_reproduces_vertices(self, coords):
        src, dst = np.array(coords).reshape(2, 3, 2)
        edges = src[1:] - src[0]
        assume(abs(np.linalg.det(edges)) > 1e-3)
        # the Jacobian sending the source's edge vectors onto the target's
        (a, c), (b, d) = np.linalg.solve(edges, dst[1:] - dst[0])
        assume(a * d - b * c > 1e-3)
        assert abs(one_face(src, dst).mu[0] - closed_form_mu((a, b, c, d))) < 1e-9


class TestMuFromAffine:
    def test_y_half(self):
        assert one_face(UNIT, apply((1, 0, 0, 0.5), UNIT)).mu.tolist() == [1 / 3]

    def test_identity_is_conformal(self):
        assert one_face(UNIT, UNIT).mu.tolist() == [0]

    def test_reflection_is_folded(self):
        # f_z vanishes: mu is undefined, and the face is folded
        field = one_face(UNIT, apply((1, 0, 0, -1), UNIT))
        assert field.folded.tolist() == [True] and field.abs_mu.tolist() == [math.inf]
        assert np.isnan(field.mu[0]) and np.isnan(field.eps_mu[0])

    @settings(max_examples=100, deadline=None)
    @given(a=finite, b=finite, c=finite, d=finite)
    def test_finite_difference_consistency(self, a, b, c, d):
        assume(a * d - b * c > 1e-3)
        tri = [[0.2, 0.1], [1.3, 0.4], [-0.5, 1.0]]
        mu = one_face(tri, apply((a, b, c, d), tri, (0.4, -0.2))).mu[0]
        h = 1e-5

        def f(x, y):
            u, v = apply((a, b, c, d), [[x, y]], (0.4, -0.2))[0]
            return complex(u, v)

        fx = (f(h, 0.0) - f(-h, 0.0)) / (2 * h)
        fy = (f(0.0, h) - f(0.0, -h)) / (2 * h)
        fz = 0.5 * (fx - 1j * fy)
        fzb = 0.5 * (fx + 1j * fy)
        assert abs(mu - fzb / fz) < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(a=finite, b=finite, c=finite, d=finite)
    def test_orientation_iff_modulus_below_one(self, a, b, c, d):
        det = a * d - b * c
        assume(abs(det) > 1e-6)
        field = one_face(UNIT, apply((a, b, c, d), UNIT))
        assume(np.isfinite(field.abs_mu[0]))  # f_z vanished: mu is undefined
        assert (field.abs_mu[0] < 1) == (det > 0) == (not field.folded[0])


@pytest.mark.parametrize("dim", [2, 3])
def test_one_face_mu_is_the_closed_form_of_its_jacobian(dim):
    """On a one-face map of Jacobian (a, b, c, d), mu is exactly
    ((a - d) + i (c + b)) / ((a + d) + i (c - b)) up to rounding.  In 3D the
    source is drawn in the canonical pose and rotated out of the plane, and
    the target rotated apart, which a conformal post-composition cannot move.
    The largest error over these maps is 1.9e-14 in 2D and 4.9e-15 in 3D;
    a conjugated mu misses by 2 |Im mu|, up to 1.9 here."""
    rng = np.random.default_rng(20261019)
    errors = []
    for _ in range(500):
        jac = jacobian_from_derivatives(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi),
                                        rng.uniform(0.0, 0.95), rng.uniform(-math.pi, math.pi))
        if dim == 2:
            src = rng.uniform(-2.0, 2.0, (3, 2))
            if abs(np.linalg.det(src[1:] - src[0])) < 1e-2:
                continue
            dst = apply(jac, src, rng.uniform(-3.0, 3.0, 2))
        else:
            pose = np.array([[0.0, 0.0], [rng.uniform(0.2, 2.0), 0.0],
                             [rng.uniform(-2.0, 2.0), rng.uniform(0.2, 2.0)]])
            src, dst = (lift(points, rotation_matrix(*rng.uniform(-math.pi, math.pi, 3)),
                             rng.uniform(-3.0, 3.0, 3)) for points in (pose, apply(jac, pose)))
        errors.append(abs(one_face(src, dst).mu[0] - closed_form_mu(jac)))
    assert len(errors) > 450
    assert max(errors) < 1e-13


class TestFaceBeltrami:
    def test_identity_map(self):
        mesh = wavy_disk(200)
        field = face_beltrami(MeshMap(mesh, mesh))
        assert field.abs_mu.max() == 0
        assert field.eps_mu.max() == 0
        assert field.folded_count == 0

    def test_constant_jacobian_on_flat_mesh(self):
        mesh = wavy_disk(200)
        flat = TriMesh(np.column_stack([mesh.vertices[:, :2], np.zeros(mesh.n_vertices)]),
                       mesh.faces)
        target = scaled_map_target(flat, 1.0, 0.5)
        field = face_beltrami(MeshMap(flat, target))
        assert np.abs(field.abs_mu - 1 / 3).max() < 1e-12
        assert np.abs(field.eps_mu - 2 * math.asin(1 / 3)).max() < 1e-12

    def test_flipped_face_flagged(self):
        # two disconnected triangles; reflect the second across the x-axis
        verts = np.array(
            [[0, 0], [1, 0], [0, 1], [3, 0], [4, 0], [3, 1]], dtype=float
        )
        faces = [[0, 1, 2], [3, 4, 5]]
        src = TriMesh(verts, faces)
        flipped = verts.copy()
        flipped[5, 1] = -1.0
        field = face_beltrami(MeshMap(src, TriMesh(flipped, faces)))
        assert field.folded.tolist() == [False, True]
        assert field.abs_mu[1] >= 1
        assert np.isnan(field.eps_mu[1]) and np.isnan(field.dilatation[1])
        assert field.abs_mu[0] == 0

    def test_connectivity_mismatch(self):
        a = wavy_disk(100)
        faces = a.faces.copy()
        faces[0] = faces[0][[1, 0, 2]]
        i, j, k = a.faces[0].tolist()
        with pytest.raises(ValidationError, match=re.escape(
                f"connectivity mismatch: face 0 differs ([{i}, {j}, {k}] vs [{j}, {i}, {k}])")):
            MeshMap(a, TriMesh(a.vertices, faces))
        with pytest.raises(ValidationError, match=re.escape(
                f"connectivity mismatch: face counts differ ({a.n_faces} vs {a.n_faces - 1})")):
            MeshMap(a, TriMesh(a.vertices, a.faces[:-1]))
        faces = a.faces.copy()
        faces[[3, 7]] = faces[[3, 7]][:, [1, 2, 0]]  # the same faces, rotated
        with pytest.raises(ValidationError, match=r"^connectivity mismatch: face 3 differs "):
            MeshMap(a, TriMesh(a.vertices, faces))


class TestScalarHelpers:
    def test_dilatation_values(self):
        assert dilatation(0.0) == 1.0
        assert dilatation(0.5) == pytest.approx(3.0)
        assert dilatation(1 / 3) == pytest.approx(2.0)
        with pytest.raises(DomainError):
            dilatation(1.0)
        with pytest.raises(DomainError):
            dilatation(-0.1)

    def test_array_inputs(self):
        mus = np.array([0.0, 0.5, 1 / 3])
        assert np.allclose(dilatation(mus), [1.0, 3.0, 2.0])
        assert np.allclose(epsilon_mu(mus), 2 * np.arcsin(mus))
        with pytest.raises(DomainError):
            dilatation(np.array([0.2, 1.0]))

    def test_epsilon_mu_values(self):
        assert epsilon_mu(0.0) == 0.0
        assert epsilon_mu(0.5) == pytest.approx(math.pi / 3)
        assert epsilon_mu(1 / 3) == pytest.approx(0.679674, abs=1e-6)
        # same quantity as twice the maximal half-angle deviation at K = 2
        delta, _ = max_half_angle_deviation(2.0)
        assert epsilon_mu(1 / 3) == 2 * delta
        with pytest.raises(DomainError):
            epsilon_mu(1.0)

    @pytest.mark.parametrize("func", [dilatation, epsilon_mu])
    @pytest.mark.parametrize("abs_mu", [math.nan, np.array([0.2, math.nan]), math.inf],
                             ids=["nan", "nan-in-array", "inf"])
    def test_nan_and_inf_rejected(self, func, abs_mu):
        with pytest.raises(DomainError, match=r"requires 0 <= \|mu\| < 1"):
            func(abs_mu)


class TestInvariances:
    def test_unit_invariance(self):
        # thresholds are relative, so micrometers and kilometers behave alike
        mesh = wavy_disk(150)
        flat = TriMesh(mesh.vertices[:, :2], mesh.faces)
        target = scaled_map_target(flat, 1.0, 0.5)
        base = face_beltrami(MeshMap(flat, target))
        for scale in (1e-6, 1e6):
            scaled = MeshMap(
                TriMesh(flat.vertices * scale, flat.faces),
                TriMesh(target.vertices * scale, target.faces),
            )
            field = face_beltrami(scaled)
            assert np.abs(field.abs_mu - base.abs_mu).max() < 1e-12

    def test_planar_direct_path_matches_flattened_path(self):
        # the same planar map analyzed as 2D coordinates or rotated into 3D
        # (forcing the rigid-flattening path) must give identical |mu|
        mesh = wavy_disk(150)
        flat = TriMesh(mesh.vertices[:, :2], mesh.faces)
        target2d = scaled_map_target(flat, 1.3, 0.6)
        base = face_beltrami(MeshMap(flat, target2d))
        rot = rotation_matrix(0.4, 1.1, -0.7)
        src3 = np.column_stack([flat.vertices, np.ones(flat.n_vertices)]) @ rot.T
        dst3 = np.column_stack([target2d.vertices, np.ones(flat.n_vertices)]) @ rot.T
        tilted = MeshMap(TriMesh(src3, flat.faces), TriMesh(dst3, flat.faces))
        field = face_beltrami(tilted)
        assert np.abs(field.abs_mu - base.abs_mu).max() < 1e-12
        assert field.folded_count == 0

    def test_conformal_post_composition(self):
        mesh = wavy_disk(250)
        src = TriMesh(mesh.vertices[:, :2], mesh.faces)
        target = scaled_map_target(src, 1.3, 0.6)
        base = face_beltrami(MeshMap(src, target))
        rng = np.random.default_rng(7)
        for _ in range(5):
            s = rng.uniform(0.5, 2.0)
            phi = rng.uniform(-math.pi, math.pi)
            t = rng.uniform(-3, 3, size=2)
            rot = s * np.array(
                [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
            )
            moved = TriMesh(target.vertices @ rot.T + t, target.faces)
            field = face_beltrami(MeshMap(src, moved))
            assert np.abs(field.mu - base.mu).max() < 1e-10

    def test_rigid_source_premotion(self):
        mesh = wavy_disk(250)
        target = scaled_map_target(
            TriMesh(np.column_stack([mesh.vertices[:, :2], np.zeros(mesh.n_vertices)]),
                    mesh.faces),
            1.0, 0.5,
        )
        base = face_beltrami(MeshMap(mesh, target))
        rot = rotation_matrix(0.3, -1.2, 2.0)
        moved_src = TriMesh(mesh.vertices @ rot.T + np.array([5.0, -2.0, 1.0]),
                            mesh.faces)
        field = face_beltrami(MeshMap(moved_src, target))
        assert np.abs(field.abs_mu - base.abs_mu).max() < 1e-10
