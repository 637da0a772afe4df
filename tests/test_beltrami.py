import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcdistort import (
    AffineMap2D,
    DomainError,
    MeshMap,
    TriMesh,
    ValidationError,
    VanishingFzError,
    affine_coefficients,
    compose_mu,
    dilatation,
    epsilon_mu,
    face_beltrami,
    flatten_triangle,
    mu_from_affine,
)
from qcdistort.synth import scaled_map_target, wavy_disk
from qcdistort.theory import max_half_angle_deviation

from test_mesh import rotation_matrix

finite = st.floats(-3.0, 3.0, allow_nan=False)


def affine_from_derivatives(mod_fz, arg_fz, ratio, arg_fzb):
    """Orientation-preserving AffineMap2D with |fzbar| = ratio * |fz| < |fz|."""
    fz = mod_fz * cmath.exp(1j * arg_fz)
    fzb = ratio * mod_fz * cmath.exp(1j * arg_fzb)
    return AffineMap2D(
        a=fz.real + fzb.real,
        b=fzb.imag - fz.imag,
        c=fz.imag + fzb.imag,
        d=fz.real - fzb.real,
    )


orientation_preserving = st.builds(
    affine_from_derivatives,
    mod_fz=st.floats(0.5, 2.0),
    arg_fz=st.floats(-math.pi, math.pi),
    ratio=st.floats(0.0, 0.9),
    arg_fzb=st.floats(-math.pi, math.pi),
)


class TestFlattenTriangle:
    def test_axis_aligned(self):
        q = flatten_triangle([0, 0, 0], [1, 0, 0], [0, 0, 1])
        assert np.allclose(q, [[0, 0], [1, 0], [0, 1]], atol=1e-15)

    def test_planar_canonical_pose(self):
        q = flatten_triangle([0, 0, 0], [2, 0, 0], [1, math.sqrt(3), 0])
        assert np.allclose(q, [[0, 0], [2, 0], [1, math.sqrt(3)]], atol=1e-14)

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
        q = flatten_triangle(*tri)
        # isometry: pairwise distances preserved to relative precision
        for i in range(3):
            for j in range(i + 1, 3):
                orig = np.linalg.norm(tri[i] - tri[j])
                assert abs(np.linalg.norm(q[i] - q[j]) - orig) < 1e-12 * max(orig, 1.0)
        assert q[2, 1] > 0  # upper half-plane
        moved = tri @ rotation_matrix(ax, ay, az).T + np.array([0.3, -0.7, 1.1])
        q2 = flatten_triangle(*moved)
        assert np.abs(q2 - q).max() < 1e-10


class TestAffineCoefficients:
    def test_unit_basis_source(self):
        m = affine_coefficients([[0, 0], [1, 0], [0, 1]], [[0, 0], [2, 0], [0, 1]])
        assert (m.a, m.b, m.c, m.d, m.p, m.q) == pytest.approx((2, 0, 0, 1, 0, 0))

    def test_identity(self):
        tri = [[0.2, 0.1], [1.3, 0.4], [-0.5, 1.0]]
        m = affine_coefficients(tri, tri)
        assert (m.a, m.b, m.c, m.d, m.p, m.q) == pytest.approx(
            (1, 0, 0, 1, 0, 0), abs=1e-12
        )

    def test_rotation_case(self):
        src = [[0, 0], [1, 0], [0, 1]]
        dst = [[1, 1], [1, 2], [0, 1]]
        m = affine_coefficients(src, dst)
        assert (m.a, m.b, m.c, m.d, m.p, m.q) == pytest.approx(
            (0, -1, 1, 0, 1, 1), abs=1e-12
        )
        # verify by substituting all three vertices
        assert np.allclose(m.apply(np.asarray(src, float)), dst, atol=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(coords=st.lists(finite, min_size=12, max_size=12))
    def test_reproduces_vertices(self, coords):
        pts = np.array(coords).reshape(2, 3, 2)
        src, dst = pts[0], pts[1]
        area2 = abs(
            (src[1, 0] - src[0, 0]) * (src[2, 1] - src[0, 1])
            - (src[2, 0] - src[0, 0]) * (src[1, 1] - src[0, 1])
        )
        assume(area2 > 1e-3)
        m = affine_coefficients(src, dst)
        scale = max(1.0, np.abs(dst).max())
        assert np.abs(m.apply(src) - dst).max() < 1e-10 * scale


class TestMuFromAffine:
    def test_y_half(self):
        assert mu_from_affine(AffineMap2D(1, 0, 0, 0.5)) == pytest.approx(1 / 3)

    def test_identity_is_conformal(self):
        assert mu_from_affine(AffineMap2D(1, 0, 0, 1)) == 0

    def test_reflection_raises(self):
        with pytest.raises(VanishingFzError):
            mu_from_affine(AffineMap2D(1, 0, 0, -1))

    @settings(max_examples=100, deadline=None)
    @given(a=finite, b=finite, c=finite, d=finite)
    def test_finite_difference_consistency(self, a, b, c, d):
        assume(a * d - b * c > 1e-3)
        m = AffineMap2D(a, b, c, d, 0.4, -0.2)
        mu = mu_from_affine(m)
        h = 1e-5

        def f(x, y):
            u, v = m.apply(np.array([x, y]))
            return complex(u, v)

        fx = (f(h, 0.0) - f(-h, 0.0)) / (2 * h)
        fy = (f(0.0, h) - f(0.0, -h)) / (2 * h)
        fz = 0.5 * (fx - 1j * fy)
        fzb = 0.5 * (fx + 1j * fy)
        assert abs(mu - fzb / fz) < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(a=finite, b=finite, c=finite, d=finite)
    def test_orientation_iff_modulus_below_one(self, a, b, c, d):
        m = AffineMap2D(a, b, c, d)
        det = a * d - b * c
        assume(abs(det) > 1e-6)
        try:
            mu = mu_from_affine(m)
        except VanishingFzError:
            assume(False)
        assert (abs(mu) < 1) == (det > 0)


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

    def test_orientation_sign_queryable(self):
        assert AffineMap2D(1, 0, 0, 1).orientation_sign == 1
        assert AffineMap2D(1, 0, 0, -1).orientation_sign == -1
        assert AffineMap2D(1, 0, 0, 0).orientation_sign == 0

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


class TestComposeMu:
    def test_conformal_second_map_exact(self):
        mu = 0.31 - 0.12j
        assert compose_mu(mu, 0, cmath.exp(0.7j)) == mu

    def test_conformal_first_map(self):
        assert compose_mu(0, 0.25 + 0.1j, 1) == pytest.approx(0.25 + 0.1j)

    def test_real_pair(self):
        assert compose_mu(0.2, 0.3, 1) == pytest.approx(0.5 / 1.06)

    def test_real_pair_against_affine_composition(self):
        # mu = t on (x, y) -> ((1+t) x, (1-t) y)
        f = AffineMap2D(1.2, 0, 0, 0.8)
        g = AffineMap2D(1.3, 0, 0, 0.7)
        gof = AffineMap2D(f.a * g.a, 0, 0, f.d * g.d)
        tau = (f.fz.conjugate() / f.fz)
        direct = mu_from_affine(gof)
        composed = compose_mu(mu_from_affine(f), mu_from_affine(g), tau)
        assert abs(direct - composed) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(f=orientation_preserving, g=orientation_preserving)
    def test_composition_consistency(self, f, g):
        a, b, c, d = f.a, f.b, f.c, f.d
        e, f_, g_, h_ = g.a, g.b, g.c, g.d
        gof = AffineMap2D(
            e * a + f_ * c, e * b + f_ * d,
            g_ * a + h_ * c, g_ * b + h_ * d,
        )
        mu_f = mu_from_affine(f)
        mu_g = mu_from_affine(g)
        tau = f.fz.conjugate() / f.fz
        assert abs(mu_from_affine(gof) - compose_mu(mu_f, mu_g, tau)) < 1e-10

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            compose_mu(1.2, 0.1, 1)
        with pytest.raises(DomainError):
            compose_mu(0.1, 0.2, 2.0)
        for args in [(complex(math.nan, 0), 0.1, 1), (0.1, complex(0, math.nan), 1),
                     (0.1, 0.2, math.nan)]:
            with pytest.raises(DomainError):
                compose_mu(*args)

    def test_modulus_stays_below_one(self):
        out = compose_mu(0.9, 0.9j, cmath.exp(1.3j))
        assert abs(out) < 1


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
