"""analyze_lib worker: closed-loop library ops in a fresh process of their
own, so that its peak RSS and its import time belong to the ops.

Usage: python libworker.py MAPS.npz RESULT.json SECONDS TRACE

MAPS.npz holds the map set built by ``run.py`` (``names``, and ``src<k>``,
``dst<k>``, ``faces<k>`` per map).  Each op takes the next map and runs
``MeshMap(src, dst)`` -> ``summarize`` -> ``report_json``.  The worker
writes its set-up time, one warm-up report per map, the op walls and spans,
each with the reference time taken before its cycle of maps, and its peak
RSS to RESULT.json.
"""

import time

_start = time.perf_counter()
import qcdistort.cli  # noqa: E402,F401  (timed: the fresh-interpreter import)

CLI_IMPORT_S = time.perf_counter() - _start

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
import qcdistort  # noqa: E402

from hostref import reference_s  # noqa: E402
from oracle import normalized_report  # noqa: E402
from tracer import Tracer  # noqa: E402


def lib_op(name: str, src, dst) -> str:
    # attribute lookups on the package, so the tracer's wrappers are seen
    mapping = qcdistort.MeshMap(src, dst)
    report = qcdistort.summarize(mapping, source_path=name, target_path=name)
    return qcdistort.report_json(report)


def main() -> int:
    maps_path, out_path, seconds, trace = (
        sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4] == "1")

    start = time.perf_counter()
    with np.load(maps_path) as data:
        maps = [(str(name), qcdistort.TriMesh(data[f"src{k}"], data[f"faces{k}"]),
                 qcdistort.TriMesh(data[f"dst{k}"], data[f"faces{k}"]))
                for k, name in enumerate(data["names"])]
    warmup = [lib_op(name, src, dst) for name, src, dst in maps]
    setup_s = time.perf_counter() - start
    refs = [normalized_report(text.encode()) for text in warmup]

    tracer = Tracer()
    block = len(maps)
    min_ops = 2 * block if trace else block
    ops, errors = [], []
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        k = i % block
        if k == 0:  # one reference per cycle of maps
            ref = reference_s()
        name, src, dst = maps[k]
        traced = trace and (i // block) % 2 == 0
        if traced:
            tracer.install()
        else:
            tracer.uninstall()
        failed = False
        t0 = time.perf_counter()
        try:
            text = lib_op(name, src, dst)
        except Exception as exc:  # counted as a failed op; the run goes on
            wall = time.perf_counter() - t0
            failed = True
            errors.append(f"op {i} ({name}) raised {type(exc).__name__}: {exc}")
        else:
            wall = time.perf_counter() - t0
            if normalized_report(text.encode()) != refs[k]:
                failed = True
                errors.append(f"op {i} ({name}) report differs from the warm-up "
                              "report beyond meta.timestamp")
        ops.append({"key": name, "wall": wall, "ref": ref, "faces": src.n_faces,
                    "traced": traced, "failed": failed,
                    "spans": tracer.take() if traced else None})
        i += 1
    tracer.uninstall()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    with open(out_path, "w", encoding="ascii") as fh:
        json.dump({"worker_setup_s": setup_s, "warmup_reports": warmup,
                   "ops": ops, "errors": errors, "peak_rss_kib": peak_rss_kib,
                   "cli_import_s": CLI_IMPORT_S, "cli_failures": 0}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
