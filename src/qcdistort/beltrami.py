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

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ValidationError
from .mesh import TriMesh, _corner_angles, _cross_2d, _dot, _face_blocks, validate_mesh

# relative guard: |f_z| <= FZ_GUARD * (|f_z| + |f_zbar|) means mu is undefined
FZ_GUARD = 1e-14


@dataclass(frozen=True, eq=False)
class MeshMap:
    """A piecewise-linear map f: source -> target as a vertex correspondence.

    Both meshes must be valid and share the face list, and with it the source's edge table and
    orientation verdict; the map sends source vertex i to target vertex i.  The map keeps its
    Beltrami and angular distortion fields after their first use (97 bytes per face).
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
        if not np.array_equal(src, dst):
            f = int(np.argmax((src != dst).any(axis=1)))
            raise ValidationError(f"connectivity mismatch: face {f} differs "
                                  f"({src[f].tolist()} vs {dst[f].tolist()})")
        validate_mesh(self.source)
        vars(self.target).update(_edges=self.source._edges, _oriented=self.source._oriented)
        validate_mesh(self.target)  # its area test: the face list's facts are the source's

    @property
    def faces(self) -> np.ndarray:
        return self.source.faces

    @property
    def n_faces(self) -> int:
        return self.source.n_faces

    @functools.cached_property
    def _fields(self):
        # the one block pass: face_beltrami, corner_distortion, summarize and the PLY export read it
        return _map_fields(self)


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


@dataclass(frozen=True, eq=False)
class AngularDistortionField:
    """Angular distortion per corner and per face.

    corner         (m, 3) |target angle - source angle|, radians
    signed_corner  (m, 3) target angle - source angle; the three values of
                   a face sum to zero since both angle triples sum to pi
    face_avg       (m,) mean of the three corner values
    """

    corner: np.ndarray = field(repr=False)
    signed_corner: np.ndarray = field(repr=False)
    face_avg: np.ndarray = field(repr=False)

    def __repr__(self):
        return f"AngularDistortionField(n_faces={len(self.face_avg)})"


def _pose(u, w, uw):
    """``(l1, 0.0, x2, y2)``: corners (0, 0), (l1, 0), (x2, y2 > 0) of faces with corner-0 u, w."""
    l1 = np.sqrt(_dot(u, u))
    x2 = uw / l1
    t = x2 / l1
    perp = [wc - t * uc for uc, wc in zip(u, w)]
    return l1, 0.0, x2, np.sqrt(_dot(perp, perp))


def _planar_frame(mesh: TriMesh, u, w, uw):
    """Corner-0 vectors ``(x1, y1, x2, y2)`` of every face in the plane from corner 0's terms:
    x and y on planar meshes (keeping signed orientation), the canonical pose on 3D ones."""
    return (*u, *w) if mesh.dimension == 2 else _pose(u, w, uw)


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


def _mu_arrays(a, b, c, d):
    """``(mu, |mu|, vanished)`` of the Jacobians (a, b, c, d), by the formulas above."""
    fz, fzb = 0.5 * ((a + d) + 1j * (c - b)), 0.5 * ((a - d) + 1j * (c + b))
    abs_fz = np.abs(fz)
    vanished = abs_fz <= FZ_GUARD * (abs_fz + np.abs(fzb))
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
    return mapping._fields[0]


def _map_fields(mapping: MeshMap):
    """``(BeltramiField, AngularDistortionField)`` from one pass over blocks of faces that
    writes into arrays made once; ``signed[k, f]`` is the target's angle minus the source's
    at corner k of face f."""
    n = mapping.n_faces
    mu, folded, signed = np.empty(n, complex), np.empty(n, bool), np.empty((3, n))
    abs_mu, dil, eps = np.full((3, n), np.nan)
    for rows in _face_blocks(n):
        angles = np.empty_like(signed[:, rows])
        src = _planar_frame(mapping.source, *_corner_angles(mapping.source, rows, angles))
        dst = _planar_frame(mapping.target, *_corner_angles(mapping.target, rows, signed[:, rows]))
        signed[:, rows] -= angles
        a, b, c, d = _affine_arrays(src, dst)
        mu[rows], abs_mu[rows], vanished = _mu_arrays(a, b, c, d)
        folded[rows] = (a * d - b * c <= 0) | vanished | (abs_mu[rows] >= 1.0)
        ok = ~folded[rows]
        x = abs_mu[rows][ok]
        dil[rows][ok], eps[rows][ok] = dilatation(x), epsilon_mu(x)
    c0, c1, c2 = corner = np.abs(signed)  # ((c0 + c1) + c2) / 3.0 has mean(axis=1)'s bits
    return (BeltramiField(mu=mu, abs_mu=abs_mu, dilatation=dil, eps_mu=eps, folded=folded),
            AngularDistortionField(corner.T, signed.T, ((c0 + c1) + c2) / 3.0))


def _float_if_0d(out):
    """``out`` as a float if it is 0-d: a scalar call of an array formula returns a float."""
    return float(out) if np.ndim(out) == 0 else out


def _of_abs_mu(formula, abs_mu, caller: str):
    """``formula(abs_mu)`` for a scalar or array whose values (NaN fails) all lie in [0, 1)."""
    x = np.asarray(abs_mu, dtype=np.float64)
    if not ((x >= 0) & (x < 1)).all():
        raise DomainError(f"{caller} requires 0 <= |mu| < 1")
    return _float_if_0d(formula(x))


def dilatation(abs_mu):
    """(1 + |mu|) / (1 - |mu|), for |mu| in [0, 1).

    Accepts scalars or arrays; raises DomainError outside the domain.
    """
    return _of_abs_mu(lambda x: (1.0 + x) / (1.0 - x), abs_mu, "dilatation")


def epsilon_mu(abs_mu):
    """Angular-distortion bound 2*arcsin(|mu|) in radians, |mu| in [0, 1)."""
    return _of_abs_mu(lambda x: 2.0 * np.arcsin(x), abs_mu, "epsilon_mu")

