"""Per-face Beltrami coefficients of piecewise-linear maps between meshes.

On each face the map is the unique affine map sending the source triangle to
the target triangle (both brought to the plane by a rigid motion if 3D).
With Jacobian entries (a, b, c, d), the Wirtinger derivatives are

    f_z    = ((a + d) + i (c - b)) / 2
    f_zbar = ((a - d) + i (c + b)) / 2

and the coefficient is mu = f_zbar / f_z.  |mu| < 1 exactly when the face
preserves orientation (ad - bc > 0); orientation-reversing faces are flagged
"folded" and their dilatation / angular-bound entries are left NaN rather
than clamped, since the bound formulas assume |mu| < 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ValidationError, VanishingFzError
from .mesh import (TriMesh, _corner, _cross_2d, _dot, _face_columns, _require_area, face_areas,
                   validate_mesh)

# relative guard: |f_z| <= FZ_GUARD * (|f_z| + |f_zbar|) means mu is undefined
FZ_GUARD = 1e-14


@dataclass(frozen=True)
class AffineMap2D:
    """Affine map (x, y) -> (a x + b y + p, c x + d y + q)."""

    a: float
    b: float
    c: float
    d: float
    p: float = 0.0
    q: float = 0.0

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        x, y = pts[..., 0], pts[..., 1]
        return np.stack([self.a * x + self.b * y + self.p,
                         self.c * x + self.d * y + self.q], axis=-1)

    @property
    def jacobian_det(self) -> float:
        return self.a * self.d - self.b * self.c

    @property
    def orientation_sign(self) -> int:
        det = self.jacobian_det
        return (det > 0) - (det < 0)

    @property
    def fz(self) -> complex:
        return complex(_wirtinger(self.a, self.b, self.c, self.d)[0])

    @property
    def fzbar(self) -> complex:
        return complex(_wirtinger(self.a, self.b, self.c, self.d)[1])


@dataclass(frozen=True, eq=False)
class MeshMap:
    """A piecewise-linear map f: source -> target as a vertex correspondence.

    Both meshes must be valid and share the face list element-wise; the map
    sends source vertex i to target vertex i.
    """

    source: TriMesh
    target: TriMesh

    def __post_init__(self):
        if self.source.n_vertices != self.target.n_vertices:
            raise ValidationError(
                "connectivity mismatch: vertex counts differ "
                f"({self.source.n_vertices} vs {self.target.n_vertices})"
            )
        src, dst = self.source.faces, self.target.faces
        if len(src) != len(dst):
            raise ValidationError(
                f"connectivity mismatch: face counts differ ({len(src)} vs {len(dst)})"
            )
        differs = (src != dst).any(axis=1)
        if differs.any():
            f = int(np.argmax(differs))
            raise ValidationError(f"connectivity mismatch: face {f} differs "
                                  f"({src[f].tolist()} vs {dst[f].tolist()})")
        validate_mesh(self.source)
        validate_mesh(self.target)

    @property
    def faces(self) -> np.ndarray:
        return self.source.faces

    @property
    def n_faces(self) -> int:
        return self.source.n_faces


@dataclass(frozen=True, eq=False)
class BeltramiField:
    """Per-face Beltrami data of a mesh map.

    mu          complex coefficient per face (NaN where f_z vanishes)
    abs_mu      |mu| (inf where f_z vanishes)
    dilatation  (1+|mu|)/(1-|mu|); NaN on folded faces
    eps_mu      2*arcsin(|mu|), the per-face angular-distortion bound in
                radians; NaN on folded faces
    folded      True where the face reverses orientation or |mu| >= 1
    """

    mu: np.ndarray = field(repr=False)
    abs_mu: np.ndarray = field(repr=False)
    dilatation: np.ndarray = field(repr=False)
    eps_mu: np.ndarray = field(repr=False)
    folded: np.ndarray = field(repr=False)

    def __repr__(self):
        return (f"BeltramiField(n_faces={len(self.mu)}, "
                f"folded_count={self.folded_count})")

    @property
    def folded_count(self) -> int:
        return int(self.folded.sum())


def _one_face(*corners) -> list[np.ndarray]:
    """``_face_columns`` of the one-face mesh on ``corners``, if not degenerate."""
    mesh = TriMesh(np.asarray(corners, dtype=np.float64), [[0, 1, 2]])
    _require_area(mesh, face_areas(mesh))
    return _face_columns(mesh)


def _pose(u, w):
    """``(l1, x2, y2)``: the corners (0, 0), (l1, 0), (x2, y2 > 0) of faces with corner-0 u, w."""
    l1 = np.sqrt(_dot(u, u))
    x2 = _dot(u, w) / l1
    t = x2 / l1
    perp = [wc - t * uc for uc, wc in zip(u, w)]
    return l1, x2, np.sqrt(_dot(perp, perp))


def flatten_triangle(p0, p1, p2) -> np.ndarray:
    """Rigidly map a 3D triangle to the plane in a canonical pose.

    The copy is isometric with q0 at the origin, q1 on the positive x-axis,
    and q2 in the open upper half-plane.  Returns a (3, 2) array.

    Raises
    ------
    DegenerateFaceError
        If the triangle, as a one-face mesh, fails :func:`validate_mesh`.
    """
    l1, x2, y2 = (float(v[0]) for v in _pose(*_corner(_one_face(p0, p1, p2), 0)))
    return np.array([[0.0, 0.0], [l1, 0.0], [x2, y2]])


def _planar_frame(mesh: TriMesh):
    """Corner-0 vectors ``(x1, y1, x2, y2)`` of every face in the plane: x and y on
    planar meshes (keeping signed orientation), the canonical pose on 3D ones."""
    u, w = _corner(_face_columns(mesh), 0)
    if mesh.dimension == 2:
        return (*u, *w)
    l1, x2, y2 = _pose(u, w)
    return l1, 0.0, x2, y2


def _affine_arrays(src, dst):
    """Affine coefficients (a, b, c, d) sending the faces of one
    :func:`_planar_frame` (valid) onto those of another."""
    dx1, dy1, dx2, dy2 = src
    du1, dv1, du2, dv2 = dst
    det = _cross_2d((dx1, dy1), (dx2, dy2))
    a = (du1 * dy2 - du2 * dy1) / det
    b = (du2 * dx1 - du1 * dx2) / det
    c = (dv1 * dy2 - dv2 * dy1) / det
    d = (dv2 * dx1 - dv1 * dx2) / det
    return a, b, c, d


def affine_coefficients(src_tri, dst_tri) -> AffineMap2D:
    """The unique affine map sending one planar triangle onto another.

    Parameters are (3, 2) arrays of vertex positions, matched by order.

    Raises
    ------
    DegenerateFaceError
        If the source triangle, as a one-face mesh, fails :func:`validate_mesh`.
    """
    src = _one_face(*np.asarray(src_tri, dtype=np.float64).reshape(3, 2))
    dst = np.asarray(dst_tri, dtype=np.float64).reshape(3, 2).T[:, None]  # x, y: (1, 3) each
    frames = [[*u, *w] for u, w in (_corner(src, 0), _corner(dst, 0))]
    a, b, c, d = (float(arr[0]) for arr in _affine_arrays(*frames))
    (x, y), (p, q) = ([col[0, 0] for col in cols] for cols in (src, dst))
    return AffineMap2D(a, b, c, d, float(p - a * x - b * y), float(q - c * x - d * y))


def mu_from_affine(m: AffineMap2D) -> complex:
    """Beltrami coefficient f_zbar / f_z of an affine map.

    Raises
    ------
    VanishingFzError
        If |f_z| falls below the relative guard (anti-conformal or collapsed
        map), in which case mu is a meaningless ratio.
    """
    mu, _, vanished = _mu_arrays(*np.array([[m.a], [m.b], [m.c], [m.d]], dtype=np.float64))
    if vanished[0]:
        raise VanishingFzError("f_z vanishes; Beltrami coefficient undefined")
    return complex(mu[0])


def _wirtinger(a, b, c, d):
    """``(f_z, f_zbar)`` of the Jacobian (a, b, c, d); scalars or arrays."""
    return 0.5 * ((a + d) + 1j * (c - b)), 0.5 * ((a - d) + 1j * (c + b))


def _mu_arrays(a, b, c, d):
    fz, fzb = _wirtinger(a, b, c, d)
    vanished = np.abs(fz) <= FZ_GUARD * (np.abs(fz) + np.abs(fzb))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mu = fzb / fz
    mu = np.where(vanished, complex(np.nan, np.nan), mu)
    abs_mu = np.abs(mu)
    abs_mu[vanished] = np.inf
    return mu, abs_mu, vanished


def face_beltrami(mapping: MeshMap) -> BeltramiField:
    """Per-face Beltrami field of a mesh map.

    3D faces are flattened by rigid motion first; since rigid motions are
    conformal this cannot change |mu|.  Faces whose image reverses
    orientation (or where |mu| >= 1, equivalently) are flagged folded and
    get NaN dilatation / eps_mu.  A face whose f_z vanishes entirely is also
    folded, with abs_mu = inf.
    """
    a, b, c, d = _affine_arrays(_planar_frame(mapping.source),
                                _planar_frame(mapping.target))
    mu, abs_mu, vanished = _mu_arrays(a, b, c, d)
    folded = (a * d - b * c <= 0) | vanished | (abs_mu >= 1.0)

    ok = ~folded
    dil, eps = np.full((2, mapping.n_faces), np.nan)
    dil[ok] = dilatation(abs_mu[ok])
    eps[ok] = epsilon_mu(abs_mu[ok])
    return BeltramiField(mu=mu, abs_mu=abs_mu, dilatation=dil, eps_mu=eps, folded=folded)


def _of_abs_mu(formula, abs_mu, caller: str):
    """``formula(abs_mu)`` for a scalar or array whose values (NaN fails) all lie in [0, 1)."""
    x = np.asarray(abs_mu, dtype=np.float64)
    if not ((x >= 0) & (x < 1)).all():
        raise DomainError(f"{caller} requires 0 <= |mu| < 1")
    out = formula(x)
    return float(out) if np.isscalar(abs_mu) or out.ndim == 0 else out


def dilatation(abs_mu):
    """(1 + |mu|) / (1 - |mu|), for |mu| in [0, 1).

    Accepts scalars or arrays; raises DomainError outside the domain.
    """
    return _of_abs_mu(lambda x: (1.0 + x) / (1.0 - x), abs_mu, "dilatation")


def epsilon_mu(abs_mu):
    """Angular-distortion bound 2*arcsin(|mu|) in radians, |mu| in [0, 1)."""
    return _of_abs_mu(lambda x: 2.0 * np.arcsin(x), abs_mu, "epsilon_mu")


def compose_mu(mu_f: complex, mu_g_of_f: complex, tau: complex) -> complex:
    """Beltrami coefficient of g o f from those of f and g.

    ``mu_g_of_f`` is g's coefficient evaluated at f(z); ``tau`` equals
    conj(f_z)/f_z and must be unimodular.  When g is conformal
    (mu_g_of_f = 0) the result is exactly mu_f.

    Raises
    ------
    DomainError
        If |mu_f| >= 1, |mu_g_of_f| >= 1, or | |tau| - 1 | > 1e-9.
    """
    mu_f = complex(mu_f)
    mu_g_of_f = complex(mu_g_of_f)
    tau = complex(tau)
    if not (abs(mu_f) < 1 and abs(mu_g_of_f) < 1):
        raise DomainError("compose_mu requires both coefficients to have modulus < 1")
    if not abs(abs(tau) - 1.0) <= 1e-9:
        raise DomainError("compose_mu requires |tau| = 1")
    if mu_g_of_f == 0:
        return mu_f
    return (mu_f + mu_g_of_f * tau) / (1.0 + mu_f.conjugate() * mu_g_of_f * tau)
