"""Span recorder that wraps qcdistort's public functions from the outside.

Nothing in ``src/`` is edited: :func:`install` swaps each traced function for
a wrapper in every loaded ``qcdistort`` module namespace (callers that did
``from .mesh import load_mesh`` hold their own reference, so each namespace
is patched), and wraps ``__post_init__`` of the two constructed types.
:func:`uninstall` puts the originals back.  Spans are kept in memory as
``[id, parent, name, start, end, failed, bytes]`` lists and written out by
the caller when the run ends.

This module imports only the standard library, so importing it does not
hide the cost of importing numpy/scipy from the ``cli.import`` span.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time

# (module, public name) pairs wrapped in a span.  Only names that the
# package keeps after its planned clean-ups are listed.
TRACED_FUNCTIONS = (
    ("mesh", "load_mesh"),
    ("mesh", "save_mesh"),
    ("mesh", "validate_mesh"),
    ("mesh", "boundary_loops"),
    ("mesh", "corner_angles"),
    ("mesh", "face_areas"),
    ("beltrami", "face_beltrami"),
    ("angular", "corner_distortion"),
    ("report", "summarize"),
    ("report", "report_json"),
    ("report", "export_report"),
    ("report", "export_colored_mesh"),
    ("parameterize", "tutte_disk"),
)
# construction of these types is traced through their __post_init__
TRACED_CLASSES = (("mesh", "TriMesh"), ("beltrami", "MeshMap"))

LAYERS = ("cli", "mesh", "beltrami", "angular", "report", "parameterize")

SPAN_ID, SPAN_PARENT, SPAN_NAME, SPAN_START, SPAN_END, SPAN_FAILED, SPAN_BYTES = range(7)


def _fmt_of(path, fmt) -> str:
    if fmt is None:
        fmt = os.path.splitext(os.fspath(path))[1].lstrip(".")
    return fmt.lower()


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# Each refiner maps the bound arguments of a call to (span name, path whose
# size is recorded before the call, path whose size is recorded after it).
# Names split a layer by input kind, e.g. OBJ against OFF.
def _refine_load(a):
    return f"mesh.load_mesh.{_fmt_of(a['path'], a.get('format'))}", a["path"], None


def _refine_save(a):
    return f"mesh.save_mesh.{_fmt_of(a['path'], a.get('format'))}", None, a["path"]


def _refine_export_report(a):
    return f"report.export_{_fmt_of(a['path'], a.get('format'))}", None, a["path"]


def _refine_export_colored(a):
    return "report.export_colored_mesh", None, a["path"]


def _refine_face_beltrami(a):
    m = a["mapping"]
    planar = m.source.dimension == 2 and m.target.dimension == 2
    return f"beltrami.face_beltrami.{'planar' if planar else 'surface'}", None, None


def _refine_tutte(a):
    config = a.get("config")
    weights = "uniform" if config is None else config.weights
    return f"parameterize.tutte_disk.{weights}", None, None


_REFINERS = {
    "load_mesh": _refine_load,
    "save_mesh": _refine_save,
    "export_report": _refine_export_report,
    "export_colored_mesh": _refine_export_colored,
    "face_beltrami": _refine_face_beltrami,
    "tutte_disk": _refine_tutte,
}


class Tracer:
    """In-memory span list with a parent stack (one thread, one op at a time)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished root span timed outside any wrapped call."""
        self.spans.append([len(self.spans), None, name, start, end, False, 0])

    def take(self) -> list[list]:
        """Return and forget the spans recorded so far."""
        out, self.spans = self.spans, []
        return out

    def _wrap(self, fn, base: str, refine):
        sig = inspect.signature(fn) if refine else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name, read_path, write_path = base, None, None
            if refine is not None:
                name, read_path, write_path = refine(sig.bind(*args, **kwargs).arguments)
            span = [len(tracer.spans), tracer._stack[-1] if tracer._stack else None,
                    name, 0.0, 0.0, False, 0]
            tracer.spans.append(span)
            tracer._stack.append(span[SPAN_ID])
            span[SPAN_START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[SPAN_FAILED] = True
                raise
            finally:
                span[SPAN_END] = time.perf_counter()
                tracer._stack.pop()
                if read_path is not None:
                    span[SPAN_BYTES] = _file_size(read_path)
                elif write_path is not None:
                    span[SPAN_BYTES] = _file_size(write_path)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function and constructor in all qcdistort modules."""
        if self._patched:
            return
        import importlib

        mods = {m: importlib.import_module(f"qcdistort.{m}")
                for m in ("mesh", "beltrami", "angular", "report", "parameterize")}
        replacements = {}
        for mod_name, fn_name in TRACED_FUNCTIONS:
            original = getattr(mods[mod_name], fn_name)
            replacements[id(original)] = (
                original,
                self._wrap(original, f"{mod_name}.{fn_name}", _REFINERS.get(fn_name)),
            )
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if name == "qcdistort" or name.startswith("qcdistort.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    self._patched.append((ns, attr, value))
        for mod_name, cls_name in TRACED_CLASSES:
            cls = getattr(mods[mod_name], cls_name)
            original = cls.__dict__["__post_init__"]
            cls.__post_init__ = self._wrap(original, f"{mod_name}.{cls_name}", None)
            self._patched.append((cls, "__post_init__", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of traced ops
# ---------------------------------------------------------------------------

# span names reported as per-op seconds, besides cli.* and report.aggregate
TIME_SPANS = (
    "mesh.load_mesh.obj", "mesh.load_mesh.off", "mesh.validate_mesh",
    "mesh.boundary_loops", "mesh.save_mesh.obj", "mesh.TriMesh",
    "beltrami.MeshMap", "beltrami.face_beltrami.planar",
    "beltrami.face_beltrami.surface", "angular.corner_distortion",
    "report.summarize", "report.export_csv", "report.export_colored_mesh",
    "parameterize.tutte_disk.uniform", "parameterize.tutte_disk.cotangent",
)
BYTE_METRICS = {
    "mesh.load_mesh.bytes_read": ("mesh.load_mesh.obj", "mesh.load_mesh.off"),
    "mesh.save_mesh.bytes_written": ("mesh.save_mesh.obj",),
    "report.export_csv.bytes_written": ("report.export_csv",),
    "report.export_colored_mesh.bytes_written": ("report.export_colored_mesh",),
}
_SUMMARIZE_CHILDREN = ("beltrami.face_beltrami.planar",
                       "beltrami.face_beltrami.surface",
                       "angular.corner_distortion")


def _op_totals(spans: list[list], wall: float) -> dict:
    """Per-op sums: seconds per span name, bytes per byte metric, and the
    derived ``report.aggregate`` and ``cli.unattributed`` times."""
    totals: dict[str, float] = {}
    names_by_id = {s[SPAN_ID]: s[SPAN_NAME] for s in spans}
    root_time = summarize_children = 0.0
    for s in spans:
        dur = s[SPAN_END] - s[SPAN_START]
        totals[s[SPAN_NAME]] = totals.get(s[SPAN_NAME], 0.0) + dur
        if s[SPAN_PARENT] is None:
            root_time += dur
        elif (s[SPAN_NAME] in _SUMMARIZE_CHILDREN
              and names_by_id[s[SPAN_PARENT]] == "report.summarize"):
            summarize_children += dur
    if "report.summarize" in totals:
        totals["report.aggregate"] = totals["report.summarize"] - summarize_children
    totals["cli.unattributed"] = wall - root_time
    for metric, names in BYTE_METRICS.items():
        nbytes = sum(s[SPAN_BYTES] for s in spans if s[SPAN_NAME] in names)
        if nbytes:
            totals[metric] = nbytes
    return totals


def layer_metrics(ops: list[tuple[float, list[list]]], failed_cli_ops: int = 0) -> dict:
    """Per-layer values from traced ops given as (wall seconds, spans).

    A time is the per-op total inside the span name, median over the traced
    ops that enter it, and 0 when none does.  ``<layer>.fail`` counts spans
    of that layer that raised; ``cli.fail`` counts CLI ops that exited
    non-zero.
    """
    per_op = [_op_totals(spans, wall) for wall, spans in ops]

    def median_of(key):
        vals = [t[key] for t in per_op if key in t]
        return statistics.median(vals) if vals else 0

    out = {}
    for name in ("cli.import", "cli.unattributed", *TIME_SPANS, "report.aggregate"):
        out[f"{name}_s"] = float(median_of(name))
    for metric in BYTE_METRICS:
        out[metric] = int(median_of(metric))
    fails = {layer: 0 for layer in LAYERS}
    fails["cli"] = failed_cli_ops
    for _, spans in ops:
        for s in spans:
            if s[SPAN_FAILED]:
                fails[s[SPAN_NAME].split(".", 1)[0]] += 1
    for layer, count in fails.items():
        out[f"{layer}.fail"] = count
    return out
