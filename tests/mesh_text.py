"""Mesh text for the reader tests: the line parsers as the reference, and
mutations of ``save_mesh`` output.

``_parse_obj`` and ``_parse_off`` are the line-by-line readers ``load_mesh``
used before its vectorised readers replaced them, kept as they were apart
from the BOM-dropping ``utf-8-sig`` decode.  ``load_mesh`` must give the same
arrays, bit for bit, or raise the same error with the same message.
"""

import io

import numpy as np

from qcdistort import ParseError

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _text_lines(data: bytes):
    # the lines open(path, "r", encoding="utf-8-sig", errors="replace") yields
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", errors="replace")


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
        raise ParseError(f"{path}:{tokens[0][1] if tokens else 1}: missing OFF header")
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


# tokens and lines the mutations below splice into save_mesh output
ODD_TOKENS = ["1_0", "nan", "inf", "+1", "1e3", "-0", "0x1", "1.5", ".", "", "v", "f",
              "0", "-1", "-3", "4", "99999999999999999999", "1/1", "2//3", "\u00e9",
              "0000000000000000000000000000000000001", "1E-2", "5.", "1e200", "99999999999",
              "nan(1)", "-", "+", "inFinity", "9223372036854775808", "-9223372036854775809",
              "\u0663", "\u0131", "/2"]
ODD_LINES = ["", " ", "\t", "v", "f", "vn", "# comment", "  # indented", "# Cr\u00e9\u00e9",
             "#\rv 0 0 0", "#\r1 2", "vt 0 0", "vn 0 0 1", "o Surface", "g\u00a0x", "s off",
             "usemtl Material", "mtllib m.mtl", "f/1 2 3", "\tv 0 0 0", "\u00a0v 0 0 0",
             "v\u00a00 0 0", "\x0cv 0 0 0", "\x1cf 1 2 3", "f 1 2 3 4", "OFF", "3 0 1 2",
             "v 0\x0b0 0", "f 1\x1c2 3"]
SLASH_PARTS = ["/1", "/1/1", "//2", "/", "/x", "/-1"]
# per-face colors: RGB integers, RGBA floats
COLORS = [" 255 0 0", " 0.1 0.2 0.3 1.0"]
# bytes that are not UTF-8 (written through surrogateescape): a stray byte,
# and a cut-off three-byte sequence
RAW_BYTES = ["\udcff", "\udce2\udc82"]
MUTATIONS = ["indent", "tab", "space", "bare", "drop", "extra", "comment", "midcomment",
             "slash", "token", "token", "line", "line", "nonascii", "crlf", "cr",
             "unterminated", "colors", "join", "raw", "bom"]


def mutate(text, mutations):
    """The bytes of ``text`` with each ``(kind, at, slot, pick)`` mutation applied."""
    lines = text.splitlines()
    end, last, bom = "\n", "\n", ""
    for kind, at, slot, pick in mutations:
        i = at % len(lines)
        parts = lines[i].split()
        if kind == "indent":
            lines[i] = " " + lines[i]
        elif kind == "tab":
            lines[i] = lines[i].replace(" ", "\t", 1)
        elif kind == "space":
            lines[i] = lines[i].replace(" ", "  ", 1)
        elif kind == "bare":
            lines[i] = parts[0] if parts else ""
        elif kind == "drop":
            lines[i] = " ".join(parts[:-1])
        elif kind == "extra":
            lines[i] += f" {1 + pick % 5}"
        elif kind == "colors":
            lines[i] += COLORS[pick % len(COLORS)]
        elif kind == "join" and i + 1 < len(lines):
            lines[i:i + 2] = [lines[i] + " " + lines[i + 1]]
        elif kind == "comment":
            lines[i] += " # note"
        elif kind == "midcomment" and parts:
            parts.insert(slot % len(parts), "#x")
            lines[i] = " ".join(parts)
        elif kind == "slash" and parts:
            parts[slot % len(parts)] += SLASH_PARTS[pick % len(SLASH_PARTS)]
            lines[i] = " ".join(parts)
        elif kind == "token" and parts:
            parts[slot % len(parts)] = ODD_TOKENS[pick % len(ODD_TOKENS)]
            lines[i] = " ".join(parts)
        elif kind == "line":
            lines.insert(i, ODD_LINES[pick % len(ODD_LINES)])
        elif kind == "nonascii":
            lines[i] += "\u00e9" if pick % 2 else "\u2028"
        elif kind == "cr" and i + 1 < len(lines):
            lines[i:i + 2] = [lines[i] + "\r" + lines[i + 1]]
        elif kind == "crlf":
            end = last = "\r\n"
        elif kind == "unterminated":
            last = ""
        elif kind == "raw" and parts:
            parts[slot % len(parts)] += RAW_BYTES[pick % len(RAW_BYTES)]
            lines[i] = " ".join(parts)
        elif kind == "bom":
            bom = "\ufeff"
    return (bom + end.join(lines) + last).encode("utf-8", "surrogateescape")


def exporter_text(text, fmt):
    """save_mesh output in the layout common exporters write.

    OBJ gets header comments, mtllib/o/usemtl/s directives, vt and vn
    lines and ``v/vt/vn`` face tokens; OFF gets comment lines and a
    trailing comment.  Both still hold a triangle mesh the bulk path reads.
    """
    lines = text.splitlines()
    if fmt == "off":
        return "\n".join(["# exported mesh", lines[0], "# counts"] + lines[1:]
                         + ["# end"]) + "\n"
    verts = [line for line in lines if line.startswith("v ")]
    faces = ["f " + " ".join(f"{t}/{t}/1" for t in line.split()[1:])
             for line in lines if line.startswith("f ")]
    return "\n".join(
        ["# exported mesh", "mtllib m.mtl", "o Surface"] + verts
        + [f"vt {k % 3} {k % 2}" for k in range(len(verts))]
        + ["vn 0 0 1", "usemtl Material", "s off"] + faces) + "\n"
