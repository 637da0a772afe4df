"""Indexed triangle meshes, OBJ/OFF/PLY file I/O, and basic geometric queries.

Conventions used throughout the package:

* ``faces[f, k]`` is the k-th vertex of face ``f``; "corner k" of a face is
  the interior angle at that vertex.  All per-corner fields downstream share
  this indexing.
* Corner angles are computed as ``atan2(|u x w|, u . w)``, which is stable
  near 0 and pi where ``acos`` is not.
* The one degeneracy test: a face whose area (on the coordinates every
  per-face formula reads, see :func:`_face_columns`) is at or below ``1e-12``
  times the squared bounding-box diagonal is degenerate, in any length unit.
* n-gon faces in input files are fan-triangulated around their first vertex.
* A mesh with every ``|z| <= 1e-12`` times the bounding-box diagonal is planar
  (dimension 2) in any length unit, as flat meshes read from 3D formats are.
"""

from __future__ import annotations

import functools
import io
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

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

# rows per block of text written at once
_WRITE_BLOCK_ROWS = 65_536

# the bytes the bulk readers convert, once skipped OBJ lines and OFF
# comments are gone; a file holding any other byte there is read line by line
_OBJ_BULK_BYTES = b"0123456789+-.eE \t\r\nvf/"
_OFF_BULK_BYTES = b"0123456789+-.eE \t\r\n"
# an OBJ line the line parser skips, with the LF before it: a blank line, or
# one whose first token is not "v" or "f" (comments, vn, vt, o, g, s, usemtl,
# mtllib, ...).  The first byte must be printable ASCII, since str.split()
# takes some other bytes for whitespace and would find a "v" or "f" behind them.
_OBJ_SKIPPED = re.compile(rb"\n(?:(?:[!-eg-uw-~]|[vf][!-~])[^\n]*|[ \t]*\r?)(?=\n)")
# an OFF comment runs to the end of its line, as the line parser reads it
_OFF_COMMENT = re.compile(rb"#[^\r\n]*")
# longer tokens send a file to the line parsers (save_mesh writes at most 24)
_BULK_TOKEN_BYTES = 32
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Immutable indexed triangle mesh with 2D or 3D vertex positions.

    Parameters
    ----------
    vertices : array_like, shape (n, 2) or (n, 3)
        Vertex coordinates, float.
    faces : array_like, shape (m, 3)
        Ordered vertex-index triples (0-based).

    Construction performs the structural checks (index range, no repeated
    vertex within a face); the geometric invariants (non-degenerate faces,
    consistent combinatorial orientation) are enforced by
    :func:`validate_mesh`, which file loading and map construction call;
    its passing verdict is cached on the mesh.
    """

    vertices: np.ndarray = field(repr=False)
    faces: np.ndarray = field(repr=False)
    dimension: int = field(init=False)

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=np.float64)
        faces = np.asarray(self.faces, dtype=np.int64)
        if faces.size == 0:
            faces = faces.reshape(0, 3)
        if verts.ndim != 2 or verts.shape[1] not in (2, 3):
            raise ValidationError("vertices must have shape (n, 2) or (n, 3)")
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise ValidationError("faces must have shape (m, 3)")
        finite = np.isfinite(verts).all(axis=1)
        if not finite.all():
            raise ValidationError(
                f"vertex {int(np.argmin(finite))} has a non-finite coordinate"
            )
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
        dim = 2
        if verts.shape[1] == 3 and verts.shape[0]:
            # hypot: the bbox diagonal without overflowing on huge coordinates
            diagonal = math.hypot(*(verts.max(axis=0) - verts.min(axis=0)))
            dim = 3 if np.abs(verts[:, 2]).max() > PLANAR_Z_FACTOR * diagonal else 2
        object.__setattr__(self, "dimension", dim)

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
    def bbox_diagonal(self) -> float:
        if self.n_vertices == 0:
            return 0.0
        extent = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        return float(np.linalg.norm(extent))

    @property
    def area_epsilon(self) -> float:
        """Faces with area at or below this are degenerate (unit-free)."""
        return AREA_EPS_FACTOR * self.bbox_diagonal ** 2

    @functools.cached_property
    def _valid(self) -> bool:
        # the passing verdict of validate_mesh; a raised error is not cached
        _check_mesh(self)
        return True


def _face_columns(mesh: TriMesh) -> list[np.ndarray]:
    """Corner coordinates of every face, one (n_faces, 3) array per coordinate
    read: x and y on planar meshes (even with a z column stored), else x, y, z."""
    return [mesh.vertices[:, c][mesh.faces] for c in range(mesh.dimension)]


# The column kernel: vectors are lists of coordinate arrays, and the products run per
# component in the order of numpy's sum, cross and norm, so the values keep their bits.

def _corner(cols, k: int):
    """``(u, w)`` at corner k: ``u = P[k+1] - P[k]`` and ``w = P[k+2] - P[k]``."""
    i, j = (k + 1) % 3, (k + 2) % 3
    return [c[:, i] - c[:, k] for c in cols], [c[:, j] - c[:, k] for c in cols]


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
    return 0.5 * _cross_norm(*_corner(_face_columns(mesh), 0))


def corner_angles(mesh: TriMesh) -> np.ndarray:
    """Interior angles of every face corner.

    Returns
    -------
    np.ndarray, shape (n_faces, 3)
        ``angles[f, k]`` is the angle (radians) at the k-th listed vertex of
        face ``f``.  Each angle lies in (0, pi) and the three angles of a
        face sum to pi up to roundoff.

    Raises
    ------
    DegenerateFaceError
        If a face fails the degeneracy test of :func:`validate_mesh`.
    """
    cols = _face_columns(mesh)
    terms = [(_dot(u, w), _cross_norm(u, w)) for u, w in (_corner(cols, k) for k in range(3))]
    _require_area(mesh, 0.5 * terms[0][1])
    return np.column_stack([np.arctan2(cross, dot) for dot, cross in terms])


def _edge_pass(mesh: TriMesh):
    """Half-edges and their undirected edges from one ``np.unique`` pass.

    Returns ``(half, inverse, counts)``.  ``half`` is the (3m, 2) array of
    directed half-edges: the rows ``(f0, f1)``, then ``(f1, f2)``, then
    ``(f2, f0)`` of every face.  ``inverse[h]`` numbers the undirected edge
    of half-edge ``h``, and ``counts[e]`` is the number of faces on edge
    ``e``.  Edges are numbered in lexicographic order of their sorted
    vertex pairs.
    """
    faces = mesh.faces
    half = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]], axis=0)
    n = max(mesh.n_vertices, 1)
    keys = half.min(axis=1) * n + half.max(axis=1)
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    return half, inverse, counts


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
    if mesh.n_faces == 0:
        return []
    half, inverse, counts = _edge_pass(mesh)
    shared = counts > 2
    if shared.any():
        # the lowest-numbered such edge, named by its sorted vertex pair
        i, j = sorted(half[np.argmax(inverse == np.argmax(shared))].tolist())
        raise NonManifoldEdgeError(
            f"edge ({i}, {j}) is shared by {int(counts.max())} faces"
        )
    border = half[counts[inverse] == 1]

    successors: dict[int, list[int]] = {}
    for i, j in border.tolist():
        successors.setdefault(i, []).append(j)
    for heads in successors.values():
        heads.sort(reverse=True)  # pop() walks to the smallest head first

    loops: list[list[int]] = []
    for start in sorted(successors):
        while successors.get(start):
            loop = [start]
            current = successors[start].pop()
            while current != start:
                loop.append(current)
                heads = successors.get(current)
                if not heads:
                    raise ValidationError(
                        "boundary edges do not form closed loops; "
                        "check face orientation"
                    )
                current = heads.pop()
            loops.append(loop)
    return loops


def validate_mesh(mesh: TriMesh) -> None:
    """Enforce the geometric mesh invariants.

    Checks that no face is degenerate (``face_areas`` at or below
    ``mesh.area_epsilon``) and that face orientation is combinatorially
    consistent wherever the mesh is manifold: every edge shared by exactly
    two faces must be traversed once in each direction.  Inconsistent
    orientation is reported, never repaired, because a silent flip would
    corrupt the sign conventions of the per-face distortion fields.

    A ``TriMesh`` is immutable, so a passing verdict is kept on the mesh
    and later calls return at once; a failure is raised again on every call.

    Raises
    ------
    ValidationError
        :class:`DegenerateFaceError` (a subclass) for a degenerate face.
    """
    mesh._valid  # runs _check_mesh on the first call only


def _check_mesh(mesh: TriMesh) -> None:
    _require_area(mesh, face_areas(mesh))
    if mesh.n_faces == 0:
        return
    # a manifold edge is consistently oriented when exactly one of its two
    # half-edges runs from the lower to the higher vertex index; edges on
    # more than two faces are reported by the ops needing manifoldness
    half, inverse, counts = _edge_pass(mesh)
    ascending = np.bincount(inverse[half[:, 0] < half[:, 1]], minlength=counts.size)
    flipped = (counts == 2) & (ascending != 1)
    if flipped.any():
        # the smallest flipped half-edge (i, j) in lexicographic order
        cand = half[flipped[inverse]]
        i, j = cand[np.lexsort((cand[:, 1], cand[:, 0]))[0]].tolist()
        raise ValidationError(f"inconsistent face orientation across edge ({i}, {j})")


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def _resolve_format(path: str | os.PathLike, format: str | None, allowed) -> str:
    if format is None:
        format = os.path.splitext(os.fspath(path))[1].lstrip(".")
    fmt = format.lower()
    if fmt not in allowed:
        raise ValueError(f"unsupported mesh format {format!r}; expected one of {allowed}")
    return fmt


def _text_lines(data: bytes):
    # the lines open(path, "r", encoding="utf-8", errors="replace") yields
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="replace")


def _index(tok: str) -> int:
    """``int(tok)``, refused (ValueError) beyond the int64 range of face arrays."""
    i = int(tok)
    if not _INT64_MIN <= i <= _INT64_MAX:
        raise ValueError(tok)
    return i


def _fan_triangulate(polys: list[tuple[list[int], int]], path) -> np.ndarray:
    faces = []
    for indices, lineno in polys:
        if len(indices) < 3:
            raise ParseError(f"{path}:{lineno}: face needs at least 3 vertices")
        for k in range(1, len(indices) - 1):
            faces.append((indices[0], indices[k], indices[k + 1]))
    return np.asarray(faces, dtype=np.int64).reshape(-1, 3)


def _parse_obj(path, data: bytes):
    vertices: list[list[float]] = []
    polys: list[tuple[list[int], int]] = []
    for lineno, raw in enumerate(_text_lines(data), 1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        key = parts[0]
        if key == "v":
            try:
                coords = [float(tok) for tok in parts[1:4]]
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad vertex coordinate") from None
            if len(coords) < 2:
                raise ParseError(f"{path}:{lineno}: vertex needs at least 2 coordinates")
            while len(coords) < 3:
                coords.append(0.0)
            vertices.append(coords)
        elif key == "f":
            indices = []
            for tok in parts[1:]:
                head = tok.split("/", 1)[0]
                try:
                    i = _index(head)
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: bad face index {tok!r}") from None
                if i == 0:
                    raise ParseError(f"{path}:{lineno}: face indices are 1-based")
                indices.append(i - 1 if i > 0 else len(vertices) + i)
            polys.append((indices, lineno))
        # vn/vt/o/g/s/usemtl/mtllib/l and other directives are ignored
    verts = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    return verts, _fan_triangulate(polys, path)


def _parse_off(path, data: bytes):
    tokens: list[tuple[str, int]] = []
    for lineno, raw in enumerate(_text_lines(data), 1):
        body = raw.split("#", 1)[0]
        tokens.extend((tok, lineno) for tok in body.split())
    if not tokens or tokens[0][0].upper() != "OFF":
        raise ParseError(f"{path}:1: missing OFF header")
    cursor = 1

    def end_of_file(kind):
        return ParseError(f"{path}:{tokens[-1][1]}: unexpected end of file (wanted {kind})")

    def take(kind, convert, line=None):  # the next token, from ``line`` if given
        nonlocal cursor
        if cursor >= len(tokens):
            raise end_of_file(kind)
        tok, lineno = tokens[cursor]
        if line is not None and lineno != line:
            raise ParseError(f"{path}:{line}: unexpected end of line (wanted {kind})")
        cursor += 1
        try:
            return convert(tok)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad {kind} {tok!r}") from None

    n_vert = take("vertex count", int)
    n_face = take("face count", int)
    take("edge count", int)
    if n_vert < 0 or n_face < 0:
        raise ParseError(f"{path}: negative element count in header")
    if 3 * n_vert > len(tokens) - cursor:
        # a header count the file cannot hold must not size the allocation
        raise end_of_file("coordinate")
    verts = np.empty((n_vert, 3), dtype=np.float64)
    for i in range(n_vert):
        for axis in range(3):
            verts[i, axis] = take("coordinate", float)
    polys: list[tuple[list[int], int]] = []
    for _ in range(n_face):
        lineno = tokens[cursor][1] if cursor < len(tokens) else tokens[-1][1]
        size = take("face size", int)
        if size < 3:
            raise ParseError(f"{path}:{lineno}: face needs at least 3 vertices")
        polys.append(([take("face index", _index, lineno) for _ in range(size)], lineno))
        # a face record ends with its line: drop what follows (face colors)
        while cursor < len(tokens) and tokens[cursor][1] == lineno:
            cursor += 1
    return verts, _fan_triangulate(polys, path)


def _short(tokens: list[bytes]) -> bool:
    # np.array(tokens) sizes every cell to the longest token
    return max(map(len, tokens)) <= _BULK_TOKEN_BYTES


def _all_vf_lines(data: bytes) -> bool:
    # every line of LF-ended data starts with "v " or "f "
    starts = data.count(b"\nv ") + data.count(b"\nf ") + data.startswith((b"v ", b"f "))
    return starts == data.count(b"\n")


def _bulk_obj(data: bytes):
    """``(vertices, faces)`` of a triangle OBJ file, else None.

    After the lines the line parser skips (blank lines, comments and
    directives other than ``v`` and ``f``) are dropped, every line must be
    ``v x y z`` or ``f i j k`` with positive indices, made of number
    characters, spaces and tabs, and ended by LF or CRLF; a face token may
    carry slash parts (``7/2/5``, ``7//5``), which are ignored.  Any other
    file, or any token the conversions refuse, gives None, and the caller
    runs :func:`_parse_obj`, which alone raises and handles n-gons,
    relative indices, extra vertex values and indented lines.  numpy
    converts bytes tokens as Python's ``float`` and ``int`` do, so the
    arrays equal the line parser's bit for bit.
    """
    if data.count(b"\r") != data.count(b"\r\n"):
        return None  # a lone CR ends a line for the line parser
    if not data.endswith(b"\n"):
        data += b"\n"
    if not _all_vf_lines(data):
        data = _OBJ_SKIPPED.sub(b"", b"\n" + data)[1:]
        if not data or not _all_vf_lines(data):
            return None
    n_lines = data.count(b"\n")
    if data.translate(None, _OBJ_BULK_BYTES):
        return None
    tokens = data.split()
    # with a v/f keyword starting every line and 4n tokens, all v/f tokens
    # sit in column 0 exactly when the number columns convert below
    if len(tokens) != 4 * n_lines or not _short(tokens):
        return None
    rows = np.array(tokens).reshape(-1, 4)
    is_v = rows[:, 0] == b"v"
    is_f = rows[:, 0] == b"f"
    if not (is_v | is_f).all():
        return None
    faces = rows[is_f, 1:]
    if b"/" in data and faces.size:
        # keep each face token up to its first slash, as the line parser
        # does; a vertex token with a slash fails its conversion
        text = faces.view(np.uint8).reshape(faces.size, -1)
        text[np.maximum.accumulate(text == ord("/"), axis=1)] = 0
    try:
        verts = rows[is_v, 1:].astype(np.float64)
        faces = faces.astype(np.int64)
    except (ValueError, OverflowError):
        return None
    if faces.size and faces.min() < 1:
        return None
    return verts, faces - 1


def _records_on_own_lines(body: bytes, first: int) -> bool:
    """Whether each 4-token record from token ``first`` on fills its own line,
    in a ``body`` of tokens parted by bytes <= 32 (space, tab, CR, LF)."""
    text = np.frombuffer(body, np.uint8)
    gap = text <= 32
    starts = np.flatnonzero(gap[:-1] > gap[1:]) + 1  # tokens 1, 2, ...
    records = starts[first - 1:].reshape(-1, 4)
    if not records.size:
        return True
    tail = text[records[0, 0]:]
    breaks = np.flatnonzero((tail == 10) | (tail == 13)) + records[0, 0]
    # the line of each record's first and last token
    line = np.searchsorted(breaks, records[:, ::3])
    return bool((line[:, 0] == line[:, 1]).all() and (line[1:, 0] > line[:-1, 1]).all())


def _bulk_off(data: bytes):
    """``(vertices, faces)`` of a triangle OFF file, else None.

    Comments are dropped first.  The file must then be the ``OFF`` token,
    the three counts, the coordinates and ``3 i j k`` records with
    non-negative indices, exactly ``3 + 3V + 4F`` number tokens after
    ``OFF``, in any spacing and line layout (spaces, tabs, LF, CR) save
    that each record fills its own line.  As with :func:`_bulk_obj`, every
    other file goes to :func:`_parse_off`.
    """
    if b"#" in data:
        data = _OFF_COMMENT.sub(b"", data)
    tokens = data.split(maxsplit=1)
    if not tokens or tokens[0] != b"OFF":
        return None
    body = tokens[1] if len(tokens) == 2 else b""
    if body.translate(None, _OFF_BULK_BYTES):
        return None
    tokens = body.split()
    try:
        n_vert, n_face, _ = (int(tok) for tok in tokens[:3])
    except ValueError:
        return None
    split = 3 + 3 * n_vert
    if (n_vert < 0 or n_face < 0 or len(tokens) != split + 4 * n_face
            or not _short(tokens) or not _records_on_own_lines(body, split)):
        return None
    try:
        verts = np.array(tokens[3:split]).astype(np.float64).reshape(-1, 3)
        records = np.array(tokens[split:]).astype(np.int64).reshape(-1, 4)
    except (ValueError, OverflowError):
        return None
    if records.size and ((records[:, 0] != 3).any() or records[:, 1:].min() < 0):
        return None
    return verts, records[:, 1:]


def load_mesh(path: str | os.PathLike, format: str | None = None) -> TriMesh:
    """Load and validate a triangle mesh from an OBJ or OFF file.

    Parameters
    ----------
    path : path-like
    format : "obj" | "off" | None
        Explicit format; inferred from the file extension when None.

    Returns
    -------
    TriMesh
        Validated mesh.  Non-triangular faces are fan-triangulated; the
        dimension is 2 when every ``|z| <= 1e-12``, else 3.

    Triangle files in the forms :func:`_bulk_obj` and :func:`_bulk_off`
    accept (among them everything :func:`save_mesh` writes) are converted
    in bulk; every other file is read line by line, with the same result.

    Raises
    ------
    ParseError
        Malformed file, or a format other than OBJ and OFF.
    ValidationError
        From :class:`TriMesh` or :func:`validate_mesh`, the path put first.
    OSError
    """
    try:
        fmt = _resolve_format(path, format, _LOAD_FORMATS)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    with open(path, "rb") as fh:
        data = fh.read()
    bulk, parse = (_bulk_obj, _parse_obj) if fmt == "obj" else (_bulk_off, _parse_off)
    arrays = bulk(data)
    verts, faces = arrays if arrays is not None else parse(path, data)
    try:
        mesh = TriMesh(verts, faces)
        validate_mesh(mesh)
    except ValidationError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    return mesh


def _as_3d(vertices: np.ndarray) -> np.ndarray:
    if vertices.shape[1] == 3:
        return vertices
    return np.column_stack([vertices, np.zeros(vertices.shape[0])])


def _blocks(n_rows: int):
    """``(start, stop)`` of each block of rows written as text at once.

    Blocks of ``_WRITE_BLOCK_ROWS`` keep the Python objects made for the
    text from growing with the row count.
    """
    for start in range(0, n_rows, _WRITE_BLOCK_ROWS):
        yield start, min(start + _WRITE_BLOCK_ROWS, n_rows)


def _write_rows(fh, row_format: str, rows: np.ndarray) -> None:
    """Write ``row_format % tuple(row)`` for every row of an (n, k) array.

    ``%.17g`` gives 17 significant digits, which round-trip doubles exactly
    through text.
    """
    for start, stop in _blocks(len(rows)):
        block = rows[start:stop]
        fh.write((row_format * len(block)) % tuple(block.ravel().tolist()))


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
        _write_rows(fh, "%.17g %.17g %.17g\n", verts)
        if face_colors is None:
            _write_rows(fh, "3 %d %d %d\n", faces)
        else:
            _write_rows(fh, "3 %d %d %d %d %d %d\n", np.column_stack([faces, face_colors]))


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
    verts = _as_3d(mesh.vertices)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        if fmt == "obj":
            _write_rows(fh, "v %.17g %.17g %.17g\n", verts)
            _write_rows(fh, "f %d %d %d\n", mesh.faces + 1)
        else:  # off
            fh.write("OFF\n")
            fh.write(f"{mesh.n_vertices} {mesh.n_faces} 0\n")
            _write_rows(fh, "%.17g %.17g %.17g\n", verts)
            _write_rows(fh, "3 %d %d %d\n", mesh.faces)
