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

from .errors import DegenerateFaceError, DomainError, ValidationError, VanishingFzError
from .mesh import TriMesh, validate_mesh

# relative guard: |f_z| <= FZ_GUARD * (|f_z| + |f_zbar|) means mu is undefined
FZ_GUARD = 1e-14
# per-face relative degeneracy threshold (scaled by the face's own size)
_FACE_EPS = 1e-12


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
        return complex(self.a + self.d, self.c - self.b) / 2.0

    @property
    def fzbar(self) -> complex:
        return complex(self.a - self.d, self.c + self.b) / 2.0


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
        if not np.array_equal(self.source.faces, self.target.faces):
            raise ValidationError("connectivity mismatch: face lists differ")
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


def flatten_triangle(p0, p1, p2) -> np.ndarray:
    """Rigidly map a 3D triangle to the plane in a canonical pose.

    The copy is isometric with q0 at the origin, q1 on the positive x-axis,
    and q2 in the open upper half-plane.  Returns a (3, 2) array.

    Raises
    ------
    DegenerateFaceError
    """
    tri = np.asarray([p0, p1, p2], dtype=np.float64).reshape(1, 3, -1)
    return _flatten_faces(tri)[0]


def _flatten_faces(tri: np.ndarray) -> np.ndarray:
    """Vectorized canonical-pose flattening of (m, 3, 3) triangles."""
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    l1 = np.linalg.norm(e1, axis=1)
    scale = np.maximum(l1, np.linalg.norm(e2, axis=1))
    bad = l1 <= _FACE_EPS * scale
    if bad.any():
        idx = int(np.argmax(bad))
        raise DegenerateFaceError(f"face {idx}: first edge has zero length", face=idx)
    x2 = (e1 * e2).sum(axis=1) / l1
    perp = e2 - (x2 / l1)[:, None] * e1
    y2 = np.linalg.norm(perp, axis=1)
    bad = y2 <= _FACE_EPS * scale
    if bad.any():
        idx = int(np.argmax(bad))
        raise DegenerateFaceError(f"face {idx} is collinear", face=idx)
    out = np.zeros((tri.shape[0], 3, 2), dtype=np.float64)
    out[:, 1, 0] = l1
    out[:, 2, 0] = x2
    out[:, 2, 1] = y2
    return out


def _face_coords_2d(mesh: TriMesh) -> np.ndarray:
    """Per-face planar coordinates, (m, 3, 2).

    Planar meshes use their stored coordinates (keeping signed orientation);
    3D meshes are flattened face-by-face in the canonical pose, which is
    orientation-positive by construction.
    """
    tri = mesh.face_corners()
    if mesh.dimension == 2:
        return np.ascontiguousarray(tri[:, :, :2])
    return _flatten_faces(tri)


def _affine_arrays(src: np.ndarray, dst: np.ndarray):
    """Vectorized affine coefficients mapping src triangles onto dst ones.

    src, dst : (m, 3, 2).  Returns (a, b, c, d) arrays; raises on source
    triangles with near-zero area.
    """
    dx1 = src[:, 1, 0] - src[:, 0, 0]
    dy1 = src[:, 1, 1] - src[:, 0, 1]
    dx2 = src[:, 2, 0] - src[:, 0, 0]
    dy2 = src[:, 2, 1] - src[:, 0, 1]
    det = dx1 * dy2 - dx2 * dy1
    scale2 = np.maximum(dx1 * dx1 + dy1 * dy1, dx2 * dx2 + dy2 * dy2)
    bad = np.abs(det) <= 2.0 * _FACE_EPS * scale2
    if bad.any():
        idx = int(np.argmax(bad))
        raise DegenerateFaceError(f"source face {idx} has near-zero area", face=idx)
    du1 = dst[:, 1, 0] - dst[:, 0, 0]
    dv1 = dst[:, 1, 1] - dst[:, 0, 1]
    du2 = dst[:, 2, 0] - dst[:, 0, 0]
    dv2 = dst[:, 2, 1] - dst[:, 0, 1]
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
        If the source triangle has near-zero area.
    """
    src = np.asarray(src_tri, dtype=np.float64).reshape(1, 3, 2)
    dst = np.asarray(dst_tri, dtype=np.float64).reshape(1, 3, 2)
    a, b, c, d = (float(arr[0]) for arr in _affine_arrays(src, dst))
    p = dst[0, 0, 0] - a * src[0, 0, 0] - b * src[0, 0, 1]
    q = dst[0, 0, 1] - c * src[0, 0, 0] - d * src[0, 0, 1]
    return AffineMap2D(a, b, c, d, float(p), float(q))


def mu_from_affine(m: AffineMap2D) -> complex:
    """Beltrami coefficient f_zbar / f_z of an affine map.

    Raises
    ------
    VanishingFzError
        If |f_z| falls below the relative guard (anti-conformal or collapsed
        map), in which case mu is a meaningless ratio.
    """
    fz, fzb = m.fz, m.fzbar
    if abs(fz) <= FZ_GUARD * (abs(fz) + abs(fzb)):
        raise VanishingFzError("f_z vanishes; Beltrami coefficient undefined")
    return fzb / fz


def _mu_arrays(a, b, c, d):
    fz = 0.5 * ((a + d) + 1j * (c - b))
    fzb = 0.5 * ((a - d) + 1j * (c + b))
    vanished = np.abs(fz) <= FZ_GUARD * (np.abs(fz) + np.abs(fzb))
    with np.errstate(divide="ignore", invalid="ignore"):
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
    m = mapping.n_faces
    a, b, c, d = _affine_arrays(_face_coords_2d(mapping.source),
                                _face_coords_2d(mapping.target))
    mu, abs_mu, vanished = _mu_arrays(a, b, c, d)
    folded = (a * d - b * c <= 0) | vanished | (abs_mu >= 1.0)

    ok = ~folded
    dil = np.full(m, np.nan)
    eps = np.full(m, np.nan)
    dil[ok] = (1.0 + abs_mu[ok]) / (1.0 - abs_mu[ok])
    eps[ok] = 2.0 * np.arcsin(abs_mu[ok])
    return BeltramiField(mu=mu, abs_mu=abs_mu, dilatation=dil, eps_mu=eps, folded=folded)


def dilatation(abs_mu):
    """(1 + |mu|) / (1 - |mu|), for |mu| in [0, 1).

    Accepts scalars or arrays; raises DomainError outside the domain.
    """
    x = np.asarray(abs_mu, dtype=np.float64)
    if np.any(x < 0) or np.any(x >= 1):
        raise DomainError("dilatation requires 0 <= |mu| < 1")
    out = (1.0 + x) / (1.0 - x)
    return float(out) if np.isscalar(abs_mu) or out.ndim == 0 else out


def epsilon_mu(abs_mu):
    """Angular-distortion bound 2*arcsin(|mu|) in radians, |mu| in [0, 1)."""
    x = np.asarray(abs_mu, dtype=np.float64)
    if np.any(x < 0) or np.any(x >= 1):
        raise DomainError("epsilon_mu requires 0 <= |mu| < 1")
    out = 2.0 * np.arcsin(x)
    return float(out) if np.isscalar(abs_mu) or out.ndim == 0 else out


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
    if abs(mu_f) >= 1 or abs(mu_g_of_f) >= 1:
        raise DomainError("compose_mu requires both coefficients to have modulus < 1")
    if abs(abs(tau) - 1.0) > 1e-9:
        raise DomainError("compose_mu requires |tau| = 1")
    if mu_g_of_f == 0:
        return mu_f
    return (mu_f + mu_g_of_f * tau) / (1.0 + mu_f.conjugate() * mu_g_of_f * tau)
