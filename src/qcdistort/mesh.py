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
    orientation) are enforced by :func:`validate_mesh`, which file loading
    and map construction call; its passing verdict is cached on the mesh.
    """

    vertices: np.ndarray = field(repr=False)
    faces: np.ndarray = field(repr=False)
    dimension: int = field(init=False)
    bbox_diagonal: float = field(init=False)

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
        raise ValueError(f"unsupported format {format!r}; expected one of {allowed}")
    return fmt


def _decode(data: bytes) -> str:
    """The text of a file: UTF-8 with each invalid byte sequence replaced, a
    leading BOM dropped, and CRLF and CR line ends read as LF."""
    text = data.decode("utf-8-sig", errors="replace")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _tokenize(text: str):
    """``(tokens, heads, breaks)``: the tokens of ``text.split()`` as an object
    array, the index of each line's first token, and the number of tokens
    before each line break, found from where each token starts in the text."""
    if text.isascii():
        codes = np.frombuffer(text.encode("ascii"), np.uint8)
    else:
        codes = np.frombuffer(text.encode("utf-32-le"), np.uint32)
    space = np.ones(codes.size + 1, dtype=bool)  # space[i + 1]: is codes[i] whitespace
    for i in range(0, codes.size, _SPACE_BLOCK):
        _IS_SPACE.take(codes[i:i + _SPACE_BLOCK], mode="clip",
                       out=space[i + 1:i + 1 + _SPACE_BLOCK])
    starts = np.flatnonzero(space[:-1] > space[1:])
    breaks = np.searchsorted(starts, np.flatnonzero(codes == 10))
    del codes, space, starts  # each about as large as the text
    tokens = text.split()
    heads = np.append(0, breaks[breaks < len(tokens)])  # sorted, with repeats
    heads = heads[np.diff(heads, append=len(tokens)) > 0]
    return np.fromiter(tokens, object, len(tokens)), heads, breaks


def _message(path, breaks: np.ndarray, at, text: str) -> str:
    """``text`` after the file and the 1-based line of token ``at``, given the
    ``breaks`` of :func:`_tokenize`."""
    return f"{path}:{np.searchsorted(breaks, at, side='right') + 1}: {text}"


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(s, s + k)`` for each start ``s`` and length ``k``, concatenated."""
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


def _convert(tokens, convert, dtype):
    """``convert`` over the tokens into a ``dtype`` array, up to the first token
    it refuses or the dtype cannot hold, and that token's index (the token
    count if none): ``(values, n_converted)``."""
    try:
        return np.fromiter(map(convert, tokens), dtype, len(tokens)), len(tokens)
    except (ValueError, OverflowError):
        values = []
        for tok in tokens:
            try:
                values.append(dtype(convert(tok)))
            except (ValueError, OverflowError):
                break
        return np.array(values, dtype), len(values)


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
    tokens, heads, breaks = _tokenize(_decode(data))
    counts = np.diff(heads, append=len(tokens)) - 1  # the tokens after each line's first
    keys = tokens[heads]
    errors = []

    v_heads = heads[keys == "v"]
    v_counts = np.minimum(counts[keys == "v"], 3)
    where = _ranges(v_heads + 1, v_counts)
    coords, ok = _convert(tokens[where], float, np.float64)
    if ok < len(where):
        errors.append((where[ok], _message(path, breaks, where[ok], "bad vertex coordinate")))
    short = np.flatnonzero(v_counts < 2)
    if short.size:
        at = v_heads[short[0]]
        errors.append((at + v_counts[short[0]] + 0.5,
                       _message(path, breaks, at, "vertex needs at least 2 coordinates")))

    f_heads, f_counts = heads[keys == "f"], counts[keys == "f"]
    where = _ranges(f_heads + 1, f_counts)
    f_tokens = tokens[where]
    # a face token's index is its text up to the first slash
    heads_text = [tok.partition("/")[0] for tok in f_tokens] if b"/" in data else f_tokens
    indices, ok = _convert(heads_text, int, np.int64)
    if ok < len(where):
        errors.append((where[ok], _message(path, breaks, where[ok],
                                           f"bad face index {f_tokens[ok]!r}")))
    zero = np.flatnonzero(indices == 0)
    if zero.size:
        at = where[zero[0]]
        errors.append((at, _message(path, breaks, at, "face indices are 1-based")))
    few = np.flatnonzero(f_counts < 3)
    if few.size:  # raised only once the whole file has parsed
        at = f_heads[few[0]]
        errors.append((len(tokens) + at,
                       _message(path, breaks, at, "face needs at least 3 vertices")))
    if errors:
        raise ParseError(min(errors)[1])

    verts = np.zeros((len(v_heads), 3))
    verts.reshape(-1)[_ranges(3 * np.arange(len(v_heads)), v_counts)] = coords
    relative = indices < 0  # counts back from the last vertex defined before it
    indices[relative] += 1 + np.searchsorted(v_heads, where[relative])
    return verts, _fan(indices - 1, f_counts)


def _read_off(path, data: bytes):
    # a comment runs to the end of its line
    tokens, heads, breaks = _tokenize(re.sub(r"#[^\n]*", "", _decode(data)))
    n = len(tokens)
    if not n:
        raise ParseError(f"{path}:1: missing OFF header")
    if tokens[0].upper() != "OFF":
        raise ParseError(_message(path, breaks, 0, "missing OFF header"))

    def end_of_file(kind):
        return _message(path, breaks, n - 1, f"unexpected end of file (wanted {kind})")

    def bad(kind, at):
        return _message(path, breaks, at, f"bad {kind} {tokens[at]!r}")

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
    coords, ok = _convert(tokens[4:first], float, np.float64)
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

    sizes, ok = _convert(tokens[starts], int, np.int64)
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
        errors.append((at, _message(path, breaks, at, "face needs at least 3 vertices")))
    available = line_ends - starts - 1
    counts = np.clip(sizes, 0, available)  # clamped before anything is allocated
    where = _ranges(starts + 1, counts)
    indices, ok = _convert(tokens[where], int, np.int64)
    if ok < len(where):
        errors.append((where[ok], bad("face index", where[ok])))
    cut = np.flatnonzero(sizes > available)
    if cut.size:
        end = line_ends[cut[0]]
        errors.append((end - 0.5, end_of_file("face index") if end == n else _message(
            path, breaks, starts[cut[0]], "unexpected end of line (wanted face index)")))
    if errors:
        raise ParseError(min(errors)[1])
    return coords.reshape(-1, 3), _fan(indices, counts)


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
        dimension is 2 when the mesh is planar (see :class:`TriMesh`), else 3.

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
    verts, faces = (_read_obj if fmt == "obj" else _read_off)(path, data)
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
