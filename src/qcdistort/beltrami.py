"""Per-face Beltrami coefficients of piecewise-linear maps between meshes.

On each face the map is the unique affine map sending the source triangle to
the target triangle (both brought to the plane by a rigid motion if 3D).
With Jacobian entries (a, b, c, d), the Wirtinger derivatives are

    f_z    = ((a + d) + i (c - b)) / 2
    f_zbar = ((a - d) + i (c + b)) / 2

and the coefficient is mu = f_zbar / f_z.  Since |f_z|^2 - |f_zbar|^2 = ad - bc,
the dilatation and the angular-distortion bound are read from the Jacobian
without forming 1 - |mu|, which loses the digits |mu| rounded away:

    K      = 1 + 2 |f_zbar| (|f_z| + |f_zbar|) / (ad - bc)   (= (1 + |mu|) / (1 - |mu|))
    eps_mu = 2 atan2(|f_zbar|, sqrt(ad - bc))                 (= 2 sin^-1 |mu|)

The first is (|f_z| + |f_zbar|)^2 / (ad - bc) written so that K >= 1 holds in
floats too, also on a conformal face.  A face is folded exactly when not ad - bc > 0
or its target face fails the area test (:func:`_jacobian_fields` alone decides); its K and
eps_mu are NaN, and its mu and |mu| are the plain quotient (|mu| = inf and non-finite mu
where f_z is 0).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .mesh import TriMesh, _corner_block, _cross_2d, _face_blocks, validate_mesh


@dataclass(frozen=True, eq=False)
class MeshMap:
    """A piecewise-linear map f: source -> target as a vertex correspondence.

    The meshes share the face list, whose checks are those of the source, which the map
    validates (``load_mesh`` does not); a target face that fails the area test is folded.  The
    map sends source vertex i to target vertex i and keeps its Beltrami and angular distortion
    fields after their first use (97 bytes per face).  They read the source's corner angles and
    planar frame, which the source mesh keeps for all its maps (56 bytes per face planar, 48 in
    3D); the target's are built per block and not kept, since a study varies the target of one
    source.
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

    mu          complex coefficient f_zbar / f_z per face, the plain quotient
                on folded faces too (non-finite where f_z is 0)
    abs_mu      |mu| (inf where f_z is 0; 1.0 on an unfolded face whose K is
                above about 1e16, where |mu| rounds to 1)
    dilatation  K = (1+|mu|)/(1-|mu|), from the Jacobian; NaN on folded faces
    eps_mu      2 sin^-1 |mu|, the per-face angular-distortion bound in
                radians, from the Jacobian; NaN on folded faces
    folded      True where the Jacobian determinant ad - bc is not > 0, or
                the target face's area is not above target.area_epsilon
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


def _affine_arrays(src, dst):
    """Affine coefficients (a, b, c, d) sending the faces of one planar frame
    (:func:`_corner_block`, valid) onto those of another."""
    dx1, dy1, dx2, dy2 = src
    du1, dv1, du2, dv2 = dst
    det = _cross_2d((dx1, dy1), (dx2, dy2))
    a = (du1 * dy2 - du2 * dy1) / det
    b = (du2 * dx1 - du1 * dx2) / det
    c = (dv1 * dy2 - dv2 * dy1) / det
    d = (dv2 * dx1 - dv1 * dx2) / det
    return a, b, c, d


def _jacobian_fields(a, b, c, d, collapsed):
    """``(mu, |mu|, K, eps_mu, folded)`` of the Jacobians (a, b, c, d) by the forms above, of
    faces whose target fails the area test where ``collapsed``: the one fold verdict."""
    fz, fzb = 0.5 * ((a + d) + 1j * (c - b)), 0.5 * ((a - d) + 1j * (c + b))
    abs_fz, abs_fzb, det = np.abs(fz), np.abs(fzb), a * d - b * c
    folded = ~(det > 0) | collapsed
    det[folded] = np.nan  # a folded face's K and eps_mu
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mu = fzb / fz
        return (mu, np.abs(mu), 1.0 + 2.0 * abs_fzb * (abs_fz + abs_fzb) / det,
                2.0 * np.arctan2(abs_fzb, np.sqrt(det)), folded)


def face_beltrami(mapping: MeshMap) -> BeltramiField:
    """Per-face Beltrami field of a mesh map.

    3D faces are flattened by rigid motion first; since rigid motions are conformal this
    cannot change |mu|.  Faces whose Jacobian determinant is not positive, or whose target
    face fails the area test of :func:`validate_mesh`, are flagged folded and get NaN
    dilatation / eps_mu; their mu and abs_mu stay the plain quotient (inf where f_z is 0).
    """
    return mapping._fields[0]


def _map_fields(mapping: MeshMap):
    """``(BeltramiField, AngularDistortionField)`` from one pass over blocks of faces that
    writes into arrays made once, reading the source's kept corner terms by slice;
    ``signed[k, f]`` is the target's angle minus the source's at corner k of face f."""
    n, target = mapping.n_faces, mapping.target
    angles, frame = mapping.source._corner_terms  # the source's, kept; the target's per block
    mu, folded, signed = np.empty(n, complex), np.empty(n, bool), np.empty((3, n))
    abs_mu, dil, eps = np.empty((3, n))
    for rows in _face_blocks(n):
        src = [c[rows] if isinstance(c, np.ndarray) else c for c in frame]
        dst, cross = _corner_block(target, rows, signed[:, rows])
        signed[:, rows] -= angles[:, rows]
        mu[rows], abs_mu[rows], dil[rows], eps[rows], folded[rows] = _jacobian_fields(
            *_affine_arrays(src, dst), ~(0.5 * cross > target.area_epsilon))  # the area test
    c0, c1, c2 = corner = np.abs(signed)  # ((c0 + c1) + c2) / 3.0 has mean(axis=1)'s bits
    return (BeltramiField(mu=mu, abs_mu=abs_mu, dilatation=dil, eps_mu=eps, folded=folded),
            AngularDistortionField(corner.T, signed.T, ((c0 + c1) + c2) / 3.0))

