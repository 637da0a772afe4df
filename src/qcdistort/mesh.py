"""Indexed triangle meshes, OBJ/OFF/PLY file I/O, and basic geometric queries.

Conventions used throughout the package:

* ``faces[f, k]`` is the k-th vertex of face ``f``; "corner k" of a face is
  the interior angle at that vertex.  All per-corner fields downstream share
  this indexing.
* Corner angles are ``atan2(|u x w|, u . w)``, stable near 0 and pi where
  ``acos`` is not, from one ``|u x w|`` per face (:func:`_face_terms`); one
  block kernel (:func:`_corner_block`) gives them with each face's planar frame.
* The one degeneracy test: a face whose area (on the coordinates every
  per-face formula reads, see :func:`_face_columns`) is at or below ``1e-12``
  times the squared bounding-box diagonal is degenerate in any unit (folded on a map's target).
* n-gon faces in input files are fan-triangulated around their first vertex.
* A mesh with every ``|z| <= 1e-12`` times the bounding-box diagonal is planar
  (dimension 2) in any length unit, as flat meshes read from 3D formats are.
"""

from __future__ import annotations

import contextlib
import functools
import marshal
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import _rowtext
from .errors import (
    DegenerateFaceError,
    NonManifoldEdgeError,
    ParseError,
    ValidationError,
)

PLANAR_Z_FACTOR = 1e-12     # times the bbox diagonal
AREA_EPS_FACTOR = 1e-12     # times (bbox diagonal)^2

_LOAD_FORMATS = ("obj", "off")
_SAVE_FORMATS = ("obj", "off", "ply")

# fewest rows in a share of a text export: a worker costs about 18 ms, and
# two shares break even at 8k rows each on the CSV, 12k on the PLY
_SHARE_MIN_ROWS = 8_192
# faces per block of the per-face passes, whose temporaries (arrays of 64 KB, about 2.5 MB in
# all) are reused from the heap, not faulted in again; rows per block of the text exports
_FACE_BLOCK = 8_192

# the code points str.split() takes for whitespace, those str.isspace() accepts
_SPACE_CODES = (9, 10, 11, 12, 13, 28, 29, 30, 31, 32, 133, 160, 5760, *range(8192, 8203),
                8232, 8233, 8239, 8287, 12288)
# whether each code point is whitespace; one past the end reads the last
# entry, which is False
_IS_SPACE = np.isin(np.arange(max(_SPACE_CODES) + 2), _SPACE_CODES)
# code points looked up at once (take() makes an intp copy of its indices)
_SPACE_BLOCK = 65_536


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Immutable indexed triangle mesh with 2D or 3D vertex positions.

    Parameters
    ----------
    vertices : array_like, shape (n, 2) or (n, 3)
        Vertex coordinates, float.
    faces : array_like, shape (m, 3)
        Ordered vertex-index triples (0-based).

    Construction sets ``dimension`` and ``bbox_diagonal`` and performs the
    structural checks (index range, no repeated vertex within a face); the
    geometric invariants (non-degenerate faces, consistent combinatorial
    orientation) are enforced by :func:`validate_mesh`, which a map's source and a Tutte input
    get (a mesh read by :func:`load_mesh`, or a map's target, gets the structural checks alone).
    A validated mesh keeps its two passing verdicts and its edge table (about
    1.8 MB per 50k faces), built once and read by validation, :func:`boundary_loops`
    and the Tutte solve.  A mesh that is a map's source, or is given to
    :func:`corner_angles`, also keeps its corner angles and planar frame (56
    bytes per face planar, 48 in 3D), read by every map of that source.
    """

    vertices: np.ndarray = field(repr=False)
    faces: np.ndarray = field(repr=False)
    dimension: int = field(init=False)
    bbox_diagonal: float = field(init=False)

    def __post_init__(self):
        try:
            verts = np.asarray(self.vertices, dtype=np.float64)
        except (TypeError, ValueError):
            raise ValidationError(_bad_vertex(self.vertices)) from None
        try:
            faces = np.asarray(self.faces)
        except ValueError:  # ragged rows
            raise ValidationError("faces must have shape (m, 3)") from None
        if faces.size == 0:
            faces = faces.reshape(0, 3)
        if verts.ndim != 2 or verts.shape[1] not in (2, 3):
            raise ValidationError("vertices must have shape (n, 2) or (n, 3)")
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise ValidationError("faces must have shape (m, 3)")
        faces = _as_indices(faces)
        if not np.isfinite(verts).all():
            bad = int(np.argmin(np.isfinite(verts).all(axis=1)))
            raise ValidationError(f"vertex {bad} has a non-finite coordinate")
        if faces.size:
            if faces.min() < 0 or faces.max() >= verts.shape[0]:
                bad = int(np.argmax((faces < 0) | (faces >= verts.shape[0]), axis=None) // 3)
                raise ValidationError(f"face {bad} has an out-of-range vertex index")
            repeated = (
                (faces[:, 0] == faces[:, 1])
                | (faces[:, 1] == faces[:, 2])
                | (faces[:, 2] == faces[:, 0])
            )
            if repeated.any():
                raise ValidationError(
                    f"face {int(np.argmax(repeated))} has a repeated vertex index"
                )
        verts = verts.copy()
        verts.flags.writeable = False
        faces = faces.copy()
        faces.flags.writeable = False
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "faces", faces)
        diagonal, dim = 0.0, 2
        if verts.shape[0]:
            # hypot: the bbox diagonal without overflowing on huge coordinates
            diagonal = math.hypot(*(verts.max(axis=0) - verts.min(axis=0)))
            if verts.shape[1] == 3 and np.abs(verts[:, 2]).max() > PLANAR_Z_FACTOR * diagonal:
                dim = 3
        object.__setattr__(self, "dimension", dim)
        object.__setattr__(self, "bbox_diagonal", diagonal)

    def __repr__(self):
        return (
            f"TriMesh(n_vertices={self.n_vertices}, n_faces={self.n_faces}, "
            f"dimension={self.dimension})"
        )

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    @property
    def area_epsilon(self) -> float:
        """Faces with area at or below this are degenerate (unit-free)."""
        d = self.bbox_diagonal  # d * d, since a float's d ** 2 raises OverflowError past 1e154
        return AREA_EPS_FACTOR * (d * d)

    @functools.cached_property
    def _nondegenerate(self) -> bool:
        # validate_mesh's area verdict: a pass is cached, a raised error is not
        _require_area(self, face_areas(self))
        return True

    @functools.cached_property
    def _oriented(self) -> bool:
        # the face list's verdict: a manifold edge is consistently oriented when exactly one of
        # its half-edges runs from the lower to the higher vertex index; edges on more than two
        # faces are reported by the ops needing manifoldness
        inverse, counts = self._edges
        tails, heads = _half_edges(self.faces)
        ascending = np.bincount(inverse[tails < heads], minlength=counts.size)
        flipped = (counts == 2) & (ascending != 1)
        if flipped.any():
            # the smallest flipped half-edge (i, j) in lexicographic order
            at = flipped[inverse]
            i, j = min(zip(tails[at].tolist(), heads[at].tolist()))
            raise ValidationError(f"inconsistent face orientation across edge ({i}, {j})")
        return True

    @functools.cached_property
    def _edges(self):
        # the face list's one edge table
        return _edge_pass(self)

    @functools.cached_property
    def _corner_terms(self):
        # the angles and planar frame that every map of this source reads (56 bytes per face
        # planar, 48 in 3D); a map's target builds its own block by block and keeps none
        return _corner_pass(self)


def _bad_vertex(vertices) -> str:
    """Why numpy cannot read ``vertices`` as float64: the first vertex with a value
    that is not a number, else ragged rows."""
    for i, row in enumerate(vertices):
        try:
            np.asarray(row, dtype=np.float64)
        except (TypeError, ValueError):
            return f"vertex {i} has a non-numeric coordinate"
    return "vertices must have shape (n, 2) or (n, 3)"


def _is_index(value) -> bool:
    try:
        value = int(value) if isinstance(value, str) else value  # as numpy reads text
        return -2**63 <= value < 2**63 and int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False


def _as_indices(faces: np.ndarray) -> np.ndarray:
    """An (m, 3) face array as int64: integers as they are (a uint64 past int64 wraps
    to a negative index, which the range check names), integral floats by value, and
    a ValidationError naming the first face with any other value."""
    if faces.dtype.kind in "iu":
        return faces.astype(np.int64, copy=False)
    if faces.dtype.kind == "f":
        with np.errstate(invalid="ignore"):  # NaN and values past int64 cast to garbage
            out = faces.astype(np.int64)
        exact = out == faces
    else:  # Python ints past int64, text, bools: one value at a time
        exact = np.frompyfunc(_is_index, 1, 1)(faces).astype(bool)
        out = faces.astype(np.int64) if exact.all() else None
    if not exact.all():
        face = int(np.argmin(exact.all(axis=1)))
        raise ValidationError(f"face {face} has a vertex index that is not a 64-bit integer")
    return out


def _face_columns(mesh: TriMesh, rows) -> list[np.ndarray]:
    """Corner coordinates of the faces ``rows``, one (n, 3) array per coordinate
    read: x and y on planar meshes (even with a z column stored), else x, y, z."""
    return [mesh.vertices[:, c][mesh.faces[rows]] for c in range(mesh.dimension)]


def _face_blocks(n_faces: int):
    """Slices of ``_FACE_BLOCK`` faces in order; numpy cuts the last one at ``n_faces``."""
    return (slice(start, start + _FACE_BLOCK) for start in range(0, n_faces, _FACE_BLOCK))


# The column kernel: vectors are lists of coordinate arrays, and the products run per
# component in the order of numpy's sum, cross and norm, so the values keep their bits.

def _face_terms(mesh: TriMesh, rows=slice(None)):
    """Yields corner 0's ``(u, w, |u x w|)`` of the faces ``rows`` from one :func:`_face_columns`,
    ``u = P1 - P0`` and ``w = P2 - P0``, whose ``|u x w|`` (twice the face's area) every corner
    shares; then the ``u . w`` of corners 0, 1 and 2, each built when taken."""
    cols = _face_columns(mesh, rows)
    # w is not -(P0 - P2): that flips signed zeros, which reach mu via the planar frame
    u, w = ([c[:, j] - c[:, 0] for c in cols] for j in (1, 2))
    yield u, w, _cross_norm(u, w)
    yield _dot(u, w)
    e = [c[:, 2] - c[:, 1] for c in cols]
    yield 0.0 - _dot(e, u)  # e . -u: 0.0 - x negates x, and keeps a +0.0 sum
    yield _dot(w, e)  # -w . -e


def _dot(u, w) -> np.ndarray:
    out = 0.0 + u[0] * w[0]  # numpy's sum starts at +0.0: -0.0 terms sum to +0.0
    for a, b in zip(u[1:], w[1:]):
        out += a * b
    return out


def _cross_2d(u, w):
    """Signed u x w of 2D vectors given as (x, y)."""
    return u[0] * w[1] - u[1] * w[0]


def _cross_norm(u, w) -> np.ndarray:
    """|u x w| of 2D or 3D vectors."""
    if len(u) == 2:
        return np.abs(_cross_2d(u, w))
    cross = [u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], _cross_2d(u, w)]
    return np.sqrt(_dot(cross, cross))


def _require_area(mesh: TriMesh, areas: np.ndarray) -> None:
    """The degeneracy test: raise on the first face (NaN included) whose
    area is not above ``mesh.area_epsilon``."""
    degenerate = ~(areas > mesh.area_epsilon)
    if degenerate.any():
        idx = int(np.argmax(degenerate))
        raise DegenerateFaceError(f"face {idx} is degenerate (area {areas[idx]:.3e} "
                                  f"<= {mesh.area_epsilon:.3e})", face=idx)


def face_areas(mesh: TriMesh) -> np.ndarray:
    """Unsigned area of every face (cross-product formula, xy if planar)."""
    areas = np.empty(mesh.n_faces)
    for rows in _face_blocks(mesh.n_faces):
        areas[rows] = 0.5 * next(_face_terms(mesh, rows))[2]
    return areas


def _pose(u, w, uw):
    """``(l1, 0.0, x2, y2)``: corners (0, 0), (l1, 0), (x2, y2 > 0) of faces with corner-0 u, w."""
    l1 = np.sqrt(_dot(u, u))
    with np.errstate(divide="ignore", invalid="ignore"):  # NaN x2, y2 where a collapsed l1 is 0
        x2 = uw / l1
        t = x2 / l1
        perp = [wc - t * uc for uc, wc in zip(u, w)]
    return l1, 0.0, x2, np.sqrt(_dot(perp, perp))


def _corner_block(mesh: TriMesh, rows, angles):
    """Angles at corner k of the faces ``rows`` into ``angles[k]``; returns ``(frame, cross)``:
    the faces' corner-0 vectors ``(x1, y1, x2, y2)`` in the plane (x and y on planar meshes,
    keeping signed orientation, the canonical pose on 3D ones) and their ``|u x w|``."""
    (u, w, cross), *dots = _face_terms(mesh, rows)
    for out, dot in zip(angles, dots):
        np.arctan2(cross, dot, out=out)
    return ((*u, *w) if mesh.dimension == 2 else _pose(u, w, dots[0])), cross


def _corner_pass(mesh: TriMesh):
    """``(angles, frame)`` of every face from one :func:`_corner_block` pass over blocks, after
    the area test: the ``(3, m)`` angles and the four frame terms, ``(m,)`` arrays but for a 3D
    frame's ``y1 = 0.0``.  The arrays are read-only."""
    mesh._nondegenerate  # a degenerate mesh raises here, before anything is kept
    n = mesh.n_faces
    kept = range(4) if mesh.dimension == 2 else (0, 2, 3)
    angles, frame = np.empty((3, n)), [np.empty(n) if k in kept else 0.0 for k in range(4)]
    for rows in _face_blocks(n):
        block, _ = _corner_block(mesh, rows, angles[:, rows])
        for k in kept:
            frame[k][rows] = block[k]
    for array in (angles, *(frame[k] for k in kept)):
        array.flags.writeable = False
    return angles, tuple(frame)


def corner_angles(mesh: TriMesh) -> np.ndarray:
    """Interior angles of every face corner.

    Returns
    -------
    np.ndarray, shape (n_faces, 3)
        ``angles[f, k]`` is the angle (radians) at the k-th listed vertex of
        face ``f``.  Each angle lies in (0, pi) and the three angles of a
        face sum to pi up to roundoff.  A writable copy of the angles the
        mesh keeps for the maps of which it is the source.

    Raises
    ------
    DegenerateFaceError
        If a face fails the degeneracy test of :func:`validate_mesh`.
    """
    return mesh._corner_terms[0].copy().T


def _half_edges(faces: np.ndarray):
    """``(tails, heads)`` of the half-edges ``(f0, f1)``, then ``(f1, f2)``, then
    ``(f2, f0)`` of every face: half-edge ``h`` runs from ``tails[h]`` to ``heads[h]``."""
    return faces.T.ravel(), faces[:, [1, 2, 0]].T.ravel()


def _edge_pass(mesh: TriMesh):
    """The undirected edges of the half-edges (:func:`_half_edges`) from one ``np.unique`` pass.

    Returns ``(inverse, counts)``.  ``inverse[h]`` numbers the undirected edge
    of half-edge ``h``, and ``counts[e]`` is the number of faces on edge
    ``e``.  Edges are numbered in lexicographic order of their sorted
    vertex pairs.  The arrays are read-only.
    """
    tails, heads = _half_edges(mesh.faces)
    n = max(mesh.n_vertices, 1)
    keys = np.minimum(tails, heads) * n + np.maximum(tails, heads)
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    for array in (inverse, counts):
        array.flags.writeable = False
    return inverse, counts


def boundary_loops(mesh: TriMesh) -> list[list[int]]:
    """Ordered cycles of boundary vertices; empty list for closed meshes.

    Boundary edges are undirected edges incident to exactly one face; each
    loop follows the direction the incident faces induce, so consistently
    oriented meshes yield consistently oriented loops.

    Raises
    ------
    NonManifoldEdgeError
        If an edge is shared by more than two faces.
    ValidationError
        If the boundary edges do not chain into closed loops (inconsistent
        face orientation).
    """
    inverse, counts = mesh._edges
    tails, heads = _half_edges(mesh.faces)
    shared = counts > 2
    if shared.any():
        # the lowest-numbered such edge, named by its sorted vertex pair
        edge = np.argmax(shared)
        h = np.argmax(inverse == edge)
        i, j = sorted((int(tails[h]), int(heads[h])))
        raise NonManifoldEdgeError(f"edge ({i}, {j}) is shared by {counts[edge]} faces")
    border = np.flatnonzero(counts[inverse] == 1)

    successors: dict[int, list[int]] = {}
    for i, j in zip(tails[border].tolist(), heads[border].tolist()):
        successors.setdefault(i, []).append(j)
    for later in successors.values():
        later.sort(reverse=True)  # pop() walks to the smallest head first

    loops: list[list[int]] = []
    for start in sorted(successors):
        while successors.get(start):
            loop = [start]
            current = successors[start].pop()
            while current != start:
                loop.append(current)
                later = successors.get(current)
                if not later:
                    raise ValidationError(
                        "boundary edges do not form closed loops; "
                        "check face orientation"
                    )
                current = later.pop()
            loops.append(loop)
    return loops


def validate_mesh(mesh: TriMesh) -> None:
    """Enforce the geometric mesh invariants.

    Checks that no face is degenerate (``face_areas`` at or below ``mesh.area_epsilon``;
    :func:`load_mesh` does not validate, and a map's target folds such a face) and that
    face orientation is combinatorially consistent wherever the mesh is manifold: every
    edge shared by exactly two faces must be traversed once in each direction.
    Inconsistent orientation is reported, never repaired, because a silent flip would
    corrupt the sign conventions of the per-face distortion fields.

    A ``TriMesh`` is immutable, so both passing verdicts are kept on the mesh,
    the orientation one with the edge table it reads (about 1.8 MB per 50k
    faces, read by :func:`boundary_loops` and the Tutte solve); later calls
    return at once, and a failure is raised again on every call.

    Raises
    ------
    ValidationError
        :class:`DegenerateFaceError` (a subclass) for a degenerate face.
    """
    mesh._nondegenerate and mesh._oriented  # each test runs until it first passes


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def _resolve_format(path: str | os.PathLike, format: str | None, allowed) -> str:
    if format is None:
        format = os.path.splitext(os.fspath(path))[1].lstrip(".")
    fmt = format.lower()
    if fmt not in allowed:
        raise ValueError(f"unsupported format {format!r}; expected one of {allowed}")
    return fmt


def _decode(data: bytes) -> str:
    """The text of a file: UTF-8 with each invalid byte sequence replaced, a
    leading BOM dropped, and CRLF and CR line ends read as LF."""
    text = data.decode("utf-8-sig", errors="replace")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


class _Tokens:
    """The tokens of ``text.split()`` as code-point offsets ``starts``/``ends`` into ``text``,
    with the index of each line's first token (``heads``) and the number of tokens
    before each line break (``breaks``); ``tokens[i]`` slices a token's text."""

    def __init__(self, text: str):
        if text.isascii():
            codes = np.frombuffer(text.encode("ascii"), np.uint8)
        else:
            codes = np.frombuffer(text.encode("utf-32-le"), np.uint32)
        space = np.ones(codes.size + 2, dtype=bool)  # space[i + 1]: is codes[i] whitespace
        for i in range(0, codes.size, _SPACE_BLOCK):
            _IS_SPACE.take(codes[i:i + _SPACE_BLOCK], mode="clip",
                           out=space[1:-1][i:i + _SPACE_BLOCK])
        edges = np.flatnonzero(space[1:] != space[:-1])  # a token's start, then its end
        self.starts, self.ends = edges[0::2], edges[1::2]
        self.breaks = np.searchsorted(self.starts, np.flatnonzero(codes == 10))
        heads = np.append(0, self.breaks[self.breaks < len(self)])  # sorted, with repeats
        self.heads = heads[np.diff(heads, append=len(self)) > 0]
        self.text, self.codes = text, codes

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, at) -> str:
        return self.text[self.starts[at]:self.ends[at]]

    def message(self, path, at, text: str) -> str:
        """``text`` after the file and the 1-based line of token ``at``."""
        return f"{path}:{np.searchsorted(self.breaks, at, side='right') + 1}: {text}"

    def parse(self, where: np.ndarray, dtype, cut: bool = False):
        """The tokens ``where`` (ascending, at least one; each up to its first ``/`` if ``cut``)
        read by one ``np.fromstring``, or None where that may differ from ``float``/``int``."""
        start = self.starts[where[0]]
        buf = self.codes[start:self.ends[where[-1]]].copy()
        # blank what lies between the tokens: other tokens, whitespace NumPy may not skip
        gaps = self.ends[where[:-1]] - start
        buf[gaps] = 32  # most gaps are one code point long
        lengths = self.starts[where[1:]] - start - gaps
        buf[_ranges(gaps[lengths > 1] + 1, lengths[lengths > 1] - 1)] = 32
        if cut:  # and each token from its first slash on
            slash = np.flatnonzero(buf == 47) + start
            owner = np.searchsorted(self.starts, slash, "right") - 1
            once = np.diff(owner, prepend=-1) > 0  # the first slash of each token
            buf[_ranges(slash[once] - start, self.ends[owner[once]] - slash[once])] = 32
        if buf.max() > 127:  # float and int read non-ASCII digits; uint8 would wrap others
            return None
        text = b" " + buf.astype(np.uint8).tobytes() + b" "
        # NumPy reads an int token "-" or "+" as 0, and "- 7" as -7
        if dtype is np.int64 and any(s + b" " in text for s in (b"-", b"+")):
            return None
        try:  # unmatched data raises, or (NumPy 1) warns and gives a short array
            values = np.fromstring(text, dtype, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
        # NumPy reads "nan(1)", which float refuses, and saturates ints beyond int64
        bad = np.isnan(values) if dtype is np.float64 else np.isin(values, (-2**63, 2**63 - 1))
        return values if len(values) == len(where) and not bad.any() else None

    def numbers(self, where: np.ndarray, dtype, cut: bool = False):
        """``(values, n)``: :meth:`parse` where it holds, else ``float``/``int`` per token
        up to the first refused or out of range, at index ``n`` (else the token count)."""
        values = self.parse(where, dtype, cut) if len(where) else np.empty(0, dtype)
        if values is not None:
            return values, len(where)
        values, convert = [], float if dtype is np.float64 else int
        for at in where.tolist():  # the per-token fallback, and the locator of a bad token
            try:
                values.append(dtype(convert(self[at].partition("/")[0] if cut else self[at])))
            except (ValueError, OverflowError):
                break
        return np.array(values, dtype), len(values)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(s, s + k)`` for each start ``s`` and length ``k``, concatenated."""
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


def _fan(indices: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Fan triangles ``(p[0], p[k], p[k + 1])`` of the polygons stored back to
    back in ``indices``, ``counts[i]`` vertices each."""
    first = np.cumsum(counts) - counts
    n_tri = np.maximum(counts - 2, 0)
    mid = _ranges(first + 1, n_tri)
    return np.column_stack([indices[np.repeat(first, n_tri)], indices[mid], indices[mid + 1]])


# The readers collect every error they find as (position, message) and raise
# the first.  A token's error sits at the token's index; one found past the
# last token of a line or of the file at that index plus 0.5.

def _read_obj(path, data: bytes):
    tokens = _Tokens(_decode(data))
    heads = tokens.heads
    counts = np.diff(heads, append=len(tokens)) - 1  # the tokens after each line's first
    keys = tokens.codes[tokens.starts[heads]] * (tokens.ends[heads] - tokens.starts[heads] == 1)
    errors = []

    v_heads = heads[keys == ord("v")]
    v_counts = np.minimum(counts[keys == ord("v")], 3)
    where = _ranges(v_heads + 1, v_counts)
    coords, ok = tokens.numbers(where, np.float64)
    if ok < len(where):
        errors.append((where[ok], tokens.message(path, where[ok], "bad vertex coordinate")))
    short = np.flatnonzero(v_counts < 2)
    if short.size:
        at = v_heads[short[0]]
        errors.append((at + v_counts[short[0]] + 0.5,
                       tokens.message(path, at, "vertex needs at least 2 coordinates")))

    f_heads, f_counts = heads[keys == ord("f")], counts[keys == ord("f")]
    where = _ranges(f_heads + 1, f_counts)
    indices, ok = tokens.numbers(where, np.int64, cut=True)
    if ok < len(where):
        errors.append((where[ok], tokens.message(path, where[ok],
                                                 f"bad face index {tokens[where[ok]]!r}")))
    zero = np.flatnonzero(indices == 0)
    if zero.size:
        at = where[zero[0]]
        errors.append((at, tokens.message(path, at, "face indices are 1-based")))
    few = np.flatnonzero(f_counts < 3)
    if few.size:  # raised only once the whole file has parsed
        at = f_heads[few[0]]
        errors.append((len(tokens) + at,
                       tokens.message(path, at, "face needs at least 3 vertices")))
    if errors:
        raise ParseError(min(errors)[1])

    verts = np.zeros((len(v_heads), 3))
    verts.reshape(-1)[_ranges(3 * np.arange(len(v_heads)), v_counts)] = coords
    relative = indices < 0  # counts back from the last vertex defined before it
    indices[relative] += 1 + np.searchsorted(v_heads, where[relative])
    return verts, _fan(indices - 1, f_counts)


def _read_off(path, data: bytes):
    tokens = _Tokens(re.sub(r"#[^\n]*", "", _decode(data)))  # a comment ends with its line
    heads, n = tokens.heads, len(tokens)
    if not n:
        raise ParseError(f"{path}:1: missing OFF header")
    if tokens[0].upper() != "OFF":
        raise ParseError(tokens.message(path, 0, "missing OFF header"))

    def end_of_file(kind):
        return tokens.message(path, n - 1, f"unexpected end of file (wanted {kind})")

    def bad(kind, at):
        return tokens.message(path, at, f"bad {kind} {tokens[at]!r}")

    header = []
    for at, kind in enumerate(("vertex count", "face count", "edge count"), 1):
        if at >= n:
            raise ParseError(end_of_file(kind))
        try:
            header.append(int(tokens[at]))
        except ValueError:
            raise ParseError(bad(kind, at)) from None
    n_vert, n_face, _ = header
    if n_vert < 0 or n_face < 0:
        raise ParseError(f"{path}: negative element count in header")
    first = 4 + 3 * n_vert
    if first > n:  # a header count the file cannot hold must not size the allocation
        raise ParseError(end_of_file("coordinate"))
    coords, ok = tokens.numbers(np.arange(4, first), np.float64)
    if ok < first - 4:
        raise ParseError(bad("coordinate", 4 + ok))

    # The first face record follows the coordinates; a record ends with its
    # line (values after its indices, such as face colors, are dropped), so
    # each later one starts a line.
    starts = np.concatenate(([first], heads[heads > first]))
    line_ends = np.append(starts[1:], n)
    keep = min(n_face, int(np.count_nonzero(starts < n)))
    starts, line_ends = starts[:keep], line_ends[:keep]
    errors = [(n, end_of_file("face size"))] if keep < n_face else []

    sizes, ok = tokens.numbers(starts, np.int64)
    if ok < keep:
        try:  # beyond int64 but an integer: more indices than the line holds
            sizes = np.append(sizes, n if int(tokens[starts[ok]]) > 0 else 0)
            ok += 1
        except ValueError:
            errors.append((starts[ok], bad("face size", starts[ok])))
        starts, line_ends, sizes = starts[:ok], line_ends[:ok], sizes[:ok]
    small = np.flatnonzero(sizes < 3)
    if small.size:
        at = starts[small[0]]
        errors.append((at, tokens.message(path, at, "face needs at least 3 vertices")))
    available = line_ends - starts - 1
    counts = np.clip(sizes, 0, available)  # clamped before anything is allocated
    where = _ranges(starts + 1, counts)
    indices, ok = tokens.numbers(where, np.int64)
    if ok < len(where):
        errors.append((where[ok], bad("face index", where[ok])))
    cut = np.flatnonzero(sizes > available)
    if cut.size:
        end = line_ends[cut[0]]
        errors.append((end - 0.5, end_of_file("face index") if end == n else tokens.message(
            path, starts[cut[0]], "unexpected end of line (wanted face index)")))
    if errors:
        raise ParseError(min(errors)[1])
    return coords.reshape(-1, 3), _fan(indices, counts)


def load_mesh(path: str | os.PathLike, format: str | None = None) -> TriMesh:
    """Read a triangle mesh from an OBJ or OFF file, checked by :class:`TriMesh` alone: the roles
    that need :func:`validate_mesh` run it (a map's source, a Tutte input, :func:`corner_angles`).

    Parameters
    ----------
    path : path-like
    format : "obj" | "off" | None
        Explicit format; inferred from the file extension when None.

    Returns
    -------
    TriMesh
        Non-triangular faces are fan-triangulated; the dimension is 2 when
        the mesh is planar (see :class:`TriMesh`), else 3.

    Raises
    ------
    ParseError
        Malformed file, or a format other than OBJ and OFF.
    ValidationError
        From :class:`TriMesh`, the path put first.
    OSError
    """
    try:
        fmt = _resolve_format(path, format, _LOAD_FORMATS)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    with open(path, "rb") as fh:
        data = fh.read()
    verts, faces = (_read_obj if fmt == "obj" else _read_off)(path, data)
    try:
        return TriMesh(verts, faces)
    except ValidationError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _as_3d(vertices: np.ndarray) -> np.ndarray:
    if vertices.shape[1] == 3:
        return vertices
    return np.column_stack([vertices, np.zeros(vertices.shape[0])])


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _share(sections, start: int, stop: int) -> list:
    """``(form, columns, a, b)``, rows ``a`` to ``b - 1`` of each section that
    rows ``start`` to ``stop - 1`` of all the sections in turn cover."""
    share, offset = [], 0
    for form, columns, n_rows in sections:
        a, b = max(start - offset, 0), min(stop - offset, n_rows)
        if a < b:
            share.append((form, columns, a, b))
        offset += n_rows
    return share


def _reap(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _start_worker(stack, share):
    """``(proc, out)``: a worker writing the text of ``share`` into the temporary file ``out``,
    reaped and closed as ``stack`` closes; None if it cannot start."""
    if not sys.executable or not os.path.isfile(_rowtext.__file__):
        return None
    import subprocess  # paid only by an export split into shares

    pieces = [(form, b - a, [(col.dtype.char, col.tobytes())
                             for col in _rowtext.column_rows(form, columns, a, b)])
              for form, columns, a, b in share]
    try:
        out = stack.enter_context(tempfile.TemporaryFile())
        # a file, unlike a pipe, takes the whole request before the worker runs
        with tempfile.TemporaryFile() as request:
            marshal.dump((_FACE_BLOCK, pieces), request)
            request.seek(0)
            proc = subprocess.Popen([sys.executable, "-S", "-I", _rowtext.__file__],
                                    stdin=request, stdout=out, stderr=subprocess.DEVNULL)
            stack.callback(_reap, proc)
    except OSError:
        return None
    return proc, out


def _chunks(file):
    """The bytes of ``file`` from its start, a MiB at a time."""
    file.seek(0)
    return iter(functools.partial(file.read, 1 << 20), b"")


def _worker_text(worker, n_rows: int):
    """A worker's output file, or None when it failed or did not give ``n_rows`` ASCII rows."""
    if not worker or worker[0].wait() != 0:
        return None
    rows = [chunk.count(b"\n") if chunk.isascii() else -1 for chunk in _chunks(worker[1])]
    return worker[1] if -1 not in rows and sum(rows) == n_rows else None


def _write_text(fh, sections) -> None:
    """Write the rows of each ``(form, columns, n_rows)`` section in turn
    (see :mod:`._rowtext`) in one share of at least ``_SHARE_MIN_ROWS`` rows
    per usable CPU.  This process formats the first share while workers
    format the others, and writes them in order, so the bytes do not depend
    on the CPU count; a worker that cannot start, fails or gives the wrong
    row count leaves its share to this process."""
    n_rows = sum(n for *_, n in sections)
    n_shares = max(1, min(_usable_cpus(), n_rows // _SHARE_MIN_ROWS))
    bounds = [n_rows * i // n_shares for i in range(n_shares + 1)]
    first, *rest = [_share(sections, a, b) for a, b in zip(bounds, bounds[1:])]
    with contextlib.ExitStack() as stack:
        workers = [_start_worker(stack, share) for share in rest]
        _rowtext.write_share(fh.write, first, _FACE_BLOCK)
        for share, worker in zip(rest, workers):
            out = _worker_text(worker, sum(b - a for *_, a, b in share))
            if out is None:
                _rowtext.write_share(fh.write, share, _FACE_BLOCK)
            else:
                for chunk in _chunks(out):
                    fh.write(chunk.decode("ascii"))


def _write_ply(path, vertices: np.ndarray, faces: np.ndarray,
               face_colors: np.ndarray | None = None) -> None:
    verts = _as_3d(vertices)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(verts)}\n")
        fh.write("property double x\nproperty double y\nproperty double z\n")
        fh.write(f"element face {len(faces)}\n")
        fh.write("property list uchar int vertex_indices\n")
        if face_colors is not None:
            fh.write("property uchar red\nproperty uchar green\nproperty uchar blue\n")
        fh.write("end_header\n")
        face_format = "3 %d %d %d\n"
        if face_colors is not None:
            faces = np.column_stack([faces, face_colors])
            face_format = "3 %d %d %d %d %d %d\n"
        _write_text(fh, [("%.17g %.17g %.17g\n", (verts.ravel(),), len(verts)),
                         (face_format, (faces.ravel(),), len(faces))])


def save_mesh(mesh: TriMesh, path: str | os.PathLike, format: str | None = None) -> None:
    """Write a mesh as OBJ, OFF, or PLY (ASCII).

    Coordinates are written with 17 significant digits, so OBJ/OFF output
    round-trips through :func:`load_mesh` exactly.  Planar meshes stored
    with 2 coordinates are written with z = 0.

    Raises
    ------
    OSError
    """
    fmt = _resolve_format(path, format, _SAVE_FORMATS)
    if fmt == "ply":
        _write_ply(path, mesh.vertices, mesh.faces)
        return
    verts, faces = _as_3d(mesh.vertices).ravel(), mesh.faces.ravel()
    if fmt == "obj":
        head, forms, faces = "", ("v %.17g %.17g %.17g\n", "f %d %d %d\n"), faces + 1
    else:  # off
        head = f"OFF\n{mesh.n_vertices} {mesh.n_faces} 0\n"
        forms = ("%.17g %.17g %.17g\n", "3 %d %d %d\n")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(head)
        # one process, not shares: in ``param`` the write follows the Tutte solve, after which
        # OpenBLAS's worker thread spins on another CPU for about 0.09 s; on 2 CPUs two shares
        # then lose (median 92 against 67 ms at 49,909 faces), and gain 10 ms at most without it
        _rowtext.write_share(fh.write, [(forms[0], (verts,), 0, mesh.n_vertices),
                                        (forms[1], (faces,), 0, mesh.n_faces)], _FACE_BLOCK)
