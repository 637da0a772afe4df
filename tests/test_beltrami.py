import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcdistort import (
    MeshMap,
    TriMesh,
    ValidationError,
    face_beltrami,
    max_distortion_for_angle,
    summarize,
)
from qcdistort.beltrami import _jacobian_fields
from qcdistort.synth import irregular_disk, scaled_map_target, wavy_disk

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


def test_quadratic_map_mu_converges_to_its_closed_form():
    """``f(z) = z + 0.2 zbar^2`` has ``f_z = 1`` and ``f_zbar = 0.4 zbar``, so ``mu = 0.4 zbar``
    exactly.  A face's piecewise-linear ``mu`` is compared with ``0.4 conj(centroid)`` on
    ``irregular_disk`` with 1,100 and 4,400 vertices: the median error is 2.24e-3 and
    1.12e-3, halving with h; a conjugated ``mu`` misses by 0.32.  Medians, since the worst
    faces are the disk's boundary slivers (0.17).  No face folds or breaks the bound."""
    medians = []
    for n_vertices in (1100, 4400):
        source = irregular_disk(n_vertices)
        z = source.vertices @ [1.0, 1j]
        w = z + 0.2 * np.conj(z) ** 2
        report = summarize(MeshMap(source, TriMesh(np.column_stack([w.real, w.imag]),
                                                   source.faces)))
        assert report.folded_count == 0 and report.bound_violations == 0
        exact = 0.4 * np.conj(z[source.faces].mean(axis=1))
        medians.append(np.median(np.abs(report.beltrami.mu - exact)))
        assert np.median(np.abs(np.conj(report.beltrami.mu) - exact)) > 0.3
    assert medians[0] < 3e-3 and medians[1] < 3e-3, medians
    assert medians[0] / medians[1] > 1.8, medians


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


def sharp_corner(k):
    """The one-face map (x, y) -> (x, y / k) of the triangle whose corner 0 is at the origin,
    bisected by the x axis, with the opening 2 atan(sqrt(k)) at which the bound is attained."""
    half = math.atan(math.sqrt(k))
    src = [[0.0, 0.0], [math.cos(half), -math.sin(half)], [math.cos(half), math.sin(half)]]
    return src, [[x, y / k] for x, y in src]


def within_ulps(got, want, n=2):
    return abs(got - want) <= n * math.ulp(want)


class TestJacobianForms:
    """K and eps_mu come from |f_z|, |f_zbar| and ad - bc, not from 1 - |mu|.

    The literals are K = (|f_z| + |f_zbar|)^2 / (ad - bc) and eps_mu = 2 atan2(|f_zbar|,
    sqrt(ad - bc)) evaluated with 50-digit mpmath at the exact Jacobian of the float
    vertices (or the float arguments).  The |mu| forms (1 + |mu|) / (1 - |mu|) and
    2 arcsin|mu| miss K by 8.3e-8 relative at K = 1e10 and eps_mu by 1.8e-12 at 1e9.
    """

    @pytest.mark.parametrize("k, dilatation, eps_mu", [
        (1e1, 9.9999999999999997089, 1.9164831769111153974),
        (1e2, 100.00000000000000697, 2.7429180436251451428),
        (1e3, 1000.0000000000000295, 3.0151436856050284791),
        (1e4, 10000.000000000000284, 3.1015939868431322862),
        (1e5, 100000.00000000000626, 3.1289435851125688767),
        (1e6, 1000000.0000000001045, 3.137592654923125772),
        (1e7, 10000000.000000000017, 3.1403277425678895863),
        (1e8, 99999999.999999992834, 3.1411926535911265718),
        (1e9, 999999999.99999997095, 3.141466162483428667),
        (1e10, 10000000000.000000548, 3.1415526535897945718),
        (1e11, 99999999999.999997915, 3.1415800044791526071),
    ])
    def test_sharp_corner_map_within_two_ulps(self, k, dilatation, eps_mu):
        field = one_face(*sharp_corner(k))
        assert field.folded.tolist() == [False]
        assert within_ulps(field.dilatation[0], dilatation)
        assert within_ulps(field.eps_mu[0], eps_mu)

    @pytest.mark.parametrize("k, dilatation, eps_mu", [
        (1e1, 9.9999999999999994449, 1.9164831769111153822),
        (1e2, 99.999999999999997918, 2.7429180436251451248),
        (1e3, 999.99999999999997918, 3.0151436856050284759),
        (1e4, 9999.9999999999995208, 3.1015939868431322847),
        (1e5, 99999.99999999999182, 3.1289435851125688758),
        (1e6, 1000000.0000000000453, 3.1375926549231257719),
        (1e7, 10000000.000000000453, 3.1403277425678895864),
        (1e8, 99999999.999999997908, 3.1411926535911265718),
        (1e9, 999999999.99999993772, 3.141466162483428667),
        (1e10, 9999999999.9999996357, 3.1415526535897945718),
        (1e11, 100000000000.00000605, 3.1415800044791526071),
        (1e12, 1000000000000.0000201, 3.1415886535897932398),
        (1e13, 9999999999999.9996963, 3.1415913886787291712),
        (1e14, 100000000000000.00012, 3.1415922535897932385),
        (1e15, 999999999999999.92229, 3.1415925270986868317),
        (1e16, 10000000000000000.209, 3.1415926135897932385),
    ])
    def test_kernel_within_two_ulps(self, k, dilatation, eps_mu):
        _, _, dil, eps, folded = _jacobian_fields(*(np.array([x]) for x in (1.0, 0.0, 0.0, 1 / k)),
                                                   np.array([False]))
        assert folded.tolist() == [False]
        assert within_ulps(dil[0], dilatation) and within_ulps(eps[0], eps_mu)

    def test_unfolded_face_whose_modulus_rounds_to_one(self):
        # at K = 1e17, |mu| = (1 - 1/K) / (1 + 1/K) rounds to 1.0; the face is not folded
        # and its K and eps_mu are those of the Jacobian (mpmath literals as above)
        mu, abs_mu, dil, eps, folded = _jacobian_fields(
            *(np.array([x]) for x in (1.0, 0.0, 0.0, 1e-17)), np.array([False]))
        assert mu.tolist() == [1.0] and abs_mu.tolist() == [1.0] and folded.tolist() == [False]
        assert within_ulps(dil[0], 99999999999999992.846)
        assert within_ulps(eps[0], 3.1415926409406825978)

    def test_fold_verdict_is_the_determinant_sign(self):
        # ad - bc > 0, = 0 (+0.0 and -0.0), < 0 and NaN; the reflection's f_z is 0; the last
        # face's ad - bc > 0, but its target fails the area test
        jacobians = np.array([(1.0, 0.0, 0.0, 0.5), (1.0, 1.0, 1.0, 1.0), (1.0, 0.0, 0.0, -0.0),
                              (1.0, 0.0, 0.0, -1.0), (np.nan, 0.0, 0.0, 1.0),
                              (1.0, 0.0, 0.0, 0.5)])
        collapsed = np.array([False] * 5 + [True])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu, abs_mu, dil, eps, folded = _jacobian_fields(*jacobians.T, collapsed)
        assert folded.tolist() == [False, True, True, True, True, True]
        assert mu[5] == mu[0] and abs_mu[5] == abs_mu[0]
        assert np.isnan(dil[1:]).all() and np.isnan(eps[1:]).all()
        assert abs_mu[3] == math.inf and not np.isfinite(mu[3])

    def test_conformal_faces_have_dilatation_at_least_one(self):
        # a similarity map: (|f_z| + |f_zbar|)^2 / (ad - bc) rounds below 1 on 34 of these
        # faces, which the theory functions reject; 1 + 2|f_zbar|(...) / (ad - bc) cannot
        mesh = irregular_disk(3000)
        xy = mesh.vertices[:, :2]
        turn = 0.01 * np.array([[math.cos(1.0), -math.sin(1.0)], [math.sin(1.0), math.cos(1.0)]])
        field = face_beltrami(MeshMap(TriMesh(xy, mesh.faces), TriMesh(xy @ turn.T, mesh.faces)))
        assert field.folded_count == 0 and field.dilatation.min() >= 1.0
        assert field.abs_mu.max() < 1e-13 and field.dilatation.max() < 1.0 + 1e-12
        max_distortion_for_angle(1.0, field.dilatation)

    @pytest.mark.parametrize("case", ["one-fold", "reflection", "mirrored"])
    def test_summarize_of_folded_faces_warns_nothing(self, case):
        # two triangles with the second's apex flipped, one reflected triangle (f_z = 0),
        # and both triangles mirrored (every face folded, the statistics empty)
        verts = np.array([[0, 0], [1, 0], [0, 1], [3, 0], [4, 0], [3, 1]], dtype=float)
        faces = [[0, 1, 2], [3, 4, 5]]
        flipped = verts * [1, -1]
        if case == "one-fold":
            flipped[:5] = verts[:5]
        elif case == "reflection":
            verts, faces, flipped = UNIT, [[0, 1, 2]], apply((1, 0, 0, -1), UNIT)
        mapping = MeshMap(TriMesh(verts, faces), TriMesh(flipped, faces))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = summarize(mapping)
        assert report.folded_count == len(faces) - (case == "one-fold")


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
