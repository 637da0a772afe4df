"""Per-corner and face-averaged angular distortion of a mesh map.

The distortion at a corner is the absolute difference between the target
and source interior angles; the face measure is the mean of its three
corners.  Everything is in radians; degree conversion happens only at the
CLI display boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .beltrami import MeshMap, _map_fields


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


def corner_distortion(mapping: MeshMap) -> AngularDistortionField:
    """Angular distortion of every face corner under the map.

    Corner k of a face compares the angles at the face's k-th listed vertex
    in the source and target meshes (same convention as
    :func:`qcdistort.mesh.corner_angles`).  Folded faces get ordinary
    values too: the angles of a flipped triangle are well defined.
    """
    return _angular_field(_map_fields(mapping)[1])


def _angular_field(signed: np.ndarray) -> AngularDistortionField:
    """The field of the signed distortions ``signed[k, f]`` at corner k of face f."""
    c0, c1, c2 = corner = np.abs(signed)  # ((c0 + c1) + c2) / 3.0 has mean(axis=1)'s bits
    return AngularDistortionField(corner.T, signed.T, ((c0 + c1) + c2) / 3.0)

