"""Per-corner and face-averaged angular distortion of a mesh map.

The distortion at a corner is the absolute difference between the target
and source interior angles; the face measure is the mean of its three
corners.  Everything is in radians; degree conversion happens only at the
CLI display boundary.
"""

from __future__ import annotations

from .beltrami import AngularDistortionField, MeshMap


def corner_distortion(mapping: MeshMap) -> AngularDistortionField:
    """Angular distortion of every face corner under the map.

    Corner k of a face compares the angles at the face's k-th listed vertex
    in the source and target meshes (same convention as
    :func:`qcdistort.mesh.corner_angles`).  Folded faces get ordinary
    values too: the angles of a flipped triangle are well defined.
    """
    return mapping._fields[1]
