#!/usr/bin/env python3
"""qcdistort benchmark: one closed-loop client, one operation in flight.

Usage (from the repository root):

    python3 perfbench/run.py --workload analyze_export --seed 1 --seconds 24 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``analyze_export``  CLI ``analyze SRC.obj DST.off --out --csv --ply-out``
* ``param_flatten``   CLI ``param SURF.obj -o FLAT.obj --weights W --analyze``
* ``analyze_lib``     in-process ``MeshMap -> summarize -> report_json``

The package is run from this tree's ``src`` (no install needed).  Every
output is checked by ``oracle.py``.  With ``--trace 0`` the last stdout line
holds the end-to-end metrics, op times in units of a reference computation
timed before each op (``hostref.py``); with ``--trace 1`` it holds the
per-layer metrics of a run whose ops alternate traced and untraced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import oracle
import tracer
from hostref import reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("analyze_export", "param_flatten", "analyze_lib")
SETUPS = 3              # set-up repetitions per run; setup_s is their median
OP_TIMEOUT_S = 120      # one op above this is killed and counted as failed
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], cwd: Path, log: Path) -> tuple[int, float, int]:
    """Run a process to completion; return (exit code, wall s, peak RSS KiB).

    The RSS is the child's own ``ru_maxrss`` from ``wait4``.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        data = oracle.normalized_report(data)
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

class AnalyzeExport:
    """CLI analyze of a 49,909-face planar map with JSON, CSV and PLY export."""

    keys = ("analyze",)

    def setup(self, seed: int, work: Path) -> None:
        import inputs
        from qcdistort import save_mesh

        self.src, self.dst = inputs.analyze_export_pair(seed)
        self.n_faces = self.src.n_faces
        save_mesh(self.src, work / "src.obj")
        save_mesh(self.dst, work / "dst.off")

    def args(self, key: str) -> tuple[list[str], list[str]]:
        return (["analyze", "src.obj", "dst.off", "--out", "r.json",
                 "--csv", "f.csv", "--ply-out", "c.ply"],
                ["r.json", "f.csv", "c.ply"])

    def check(self, key: str, outputs: dict) -> tuple[list[str], dict]:
        report = json.loads(outputs["r.json"].read_text())
        expected = oracle.expected_map(self.src.vertices, self.dst.vertices,
                                       self.src.faces)
        errors = (oracle.check_report(report, expected)
                  + oracle.check_csv(outputs["f.csv"], expected, report)
                  + oracle.check_ply(outputs["c.ply"], self.src.n_vertices,
                                     self.src.n_faces))
        return errors, oracle.map_counts(self.src.n_vertices, self.src.faces,
                                         expected, report)


class ParamFlatten:
    """CLI Tutte flatten of a 49,909-face surface plus its report."""

    keys = ("uniform", "cotangent")

    def setup(self, seed: int, work: Path) -> None:
        import inputs
        from qcdistort import save_mesh

        self.surf = inputs.param_flatten_surface(seed)
        self.n_faces = self.surf.n_faces
        save_mesh(self.surf, work / "surf.obj")

    def args(self, key: str) -> tuple[list[str], list[str]]:
        return (["param", "surf.obj", "-o", "flat.obj", "--weights", key, "--analyze"],
                ["flat.obj", "flat.obj.report.json"])

    def check(self, key: str, outputs: dict) -> tuple[list[str], dict]:
        errors, uv = oracle.check_flat_obj(outputs["flat.obj"], self.surf.vertices,
                                           self.surf.faces, key)
        if uv is None:
            return errors, {}
        report = json.loads(outputs["flat.obj.report.json"].read_text())
        expected = oracle.expected_map(self.surf.vertices, uv, self.surf.faces)
        errors += oracle.check_report(report, expected)
        return errors, oracle.map_counts(self.surf.n_vertices, self.surf.faces,
                                         expected, report)


CLI_WORKLOADS = {"analyze_export": AnalyzeExport, "param_flatten": ParamFlatten}


def run_cli_workload(name: str, seed: int, seconds: float, trace: bool,
                     work: Path) -> dict:
    spec = CLI_WORKLOADS[name]()
    setup_s = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        spec.setup(seed, work)
        # warm-up: byte-compile the package and load its imports once
        rc, _, _ = run_child([sys.executable, "-m", "qcdistort.cli", "version"],
                             work, work / "warmup.log")
        setup_s.append(time.perf_counter() - start)
        if rc != 0:
            raise RuntimeError(f"warm-up 'version' exited {rc}: "
                               f"{(work / 'warmup.log').read_text()[-500:]}")

    block = len(spec.keys)
    min_ops = 2 * block if trace else block
    ops, refs, errors = [], {}, []
    spans_path = work / "spans.json"
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        ref = reference_s()
        key = spec.keys[i % block]
        traced = trace and (i // block) % 2 == 0
        cli_args, outputs = spec.args(key)
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path)]
        else:
            argv = [sys.executable, "-m", "qcdistort.cli"]
        rc, wall, rss = run_child(argv + cli_args, work, work / "op.log")
        op = {"key": key, "wall": wall, "ref": ref, "faces": spec.n_faces,
              "rss_kib": rss, "traced": traced, "exit": rc, "failed": rc != 0,
              "spans": None}
        if rc != 0:
            errors.append(f"op {i} ({key}) exited {rc}: "
                          f"{(work / 'op.log').read_text()[-500:]}")
        else:
            hashes = {out: digest(work / out) for out in outputs}
            if key not in refs:
                # the first output per input is kept for the full oracle check
                refs[key] = hashes
                for out in outputs:
                    (work / out).replace(work / f"ref_{key}_{out}")
            elif hashes != refs[key]:
                op["failed"] = True
                errors.append(f"op {i} ({key}) output differs from op "
                              f"{spec.keys.index(key)} beyond meta.timestamp")
        for out in outputs:
            (work / out).unlink(missing_ok=True)
        if traced and spans_path.exists():
            op["spans"] = json.loads(spans_path.read_text())
            spans_path.unlink()
        ops.append(op)
        i += 1

    counts = {}
    for key in refs:
        key_errors, key_counts = spec.check(
            key, {out: work / f"ref_{key}_{out}" for out in spec.args(key)[1]})
        for field, value in key_counts.items():
            counts[field] = counts.get(field, 0) + value
        if key_errors:
            errors += [f"{key}: {e}" for e in key_errors]
            for op in ops:
                op["failed"] |= op["key"] == key
    return {"setup_s": setup_s, "ops": ops, "errors": errors, "counts": counts,
            "peak_rss_kib": max(op["rss_kib"] for op in ops),
            "cli_import_s": None, "cli_failures": sum(op["exit"] != 0 for op in ops)}


def run_lib_workload(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Maps are built here and handed to a dedicated worker process, so the
    worker's peak RSS covers the ops and not the Tutte solves of set-up."""
    import inputs

    maps_path = work / "maps.npz"
    gen_s = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        maps = inputs.analyze_lib_maps(seed)
        arrays = {"names": np.array([name for name, _, _ in maps])}
        for k, (_, src, dst) in enumerate(maps):
            arrays.update({f"src{k}": src.vertices, f"dst{k}": dst.vertices,
                           f"faces{k}": src.faces})
        np.savez(maps_path, **arrays)
        gen_s.append(time.perf_counter() - start)

    out = work / "lib_result.json"
    argv = [sys.executable, str(HERE / "libworker.py"), str(maps_path), str(out),
            str(seconds), str(int(trace))]
    rc, _, _ = run_child(argv, work, work / "lib.log")
    if rc != 0 or not out.exists():
        raise RuntimeError(f"analyze_lib worker exited {rc}: "
                           f"{(work / 'lib.log').read_text()[-2000:]}")
    result = json.loads(out.read_text())
    # set-up: input generation (median of SETUPS) plus the worker's loading,
    # TriMesh construction and warm-up
    worker_setup_s = result.pop("worker_setup_s")
    result["setup_s"] = [g + worker_setup_s for g in gen_s]
    # the warm-up report of each map is checked in full; the worker has
    # compared every timed output with it
    counts, bad = {}, set()
    for (name, src, dst), text in zip(maps, result.pop("warmup_reports")):
        report = json.loads(text)
        expected = oracle.expected_map(src.vertices, dst.vertices, src.faces)
        map_errors = oracle.check_report(report, expected)
        if map_errors:
            bad.add(name)
            result["errors"] += [f"{name}: {e}" for e in map_errors]
        for field, value in oracle.map_counts(src.n_vertices, src.faces,
                                              expected, report).items():
            counts[field] = counts.get(field, 0) + value
    for op in result["ops"]:
        op["failed"] |= op["key"] in bad
    result["counts"] = counts
    return result


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def raw_op_times(ops: list[dict]) -> dict:
    """Op times in plain seconds, printed beside the metrics."""
    walls = [op["wall"] for op in ops]
    return {
        "faces_per_s": sum(op["faces"] for op in ops) / sum(walls),
        "op_p50_s": statistics.median(walls),
        "ref_s": statistics.median(op["ref"] for op in ops),
    }


def end_to_end(result: dict) -> dict:
    # each op's wall time in units of the reference timed just before it
    ops = result["ops"]
    in_refs = [op["wall"] / op["ref"] for op in ops]
    return {
        "faces_per_ref": sum(op["faces"] for op in ops) / sum(in_refs),
        "op_p50_ref": statistics.median(in_refs),
        "peak_rss_mib": result["peak_rss_kib"] / 1024.0,
        "setup_s": statistics.median(result["setup_s"]),
    }


def per_layer(result: dict) -> dict:
    ops = result["ops"]
    traced = [(op["wall"], op["spans"] or []) for op in ops if op["traced"]]
    values = tracer.layer_metrics(traced, result["cli_failures"])
    if result["cli_import_s"] is not None:
        values["cli.import_s"] = result["cli_import_s"]
    traced_p50 = statistics.median(w for w, _ in traced)
    untraced_p50 = statistics.median(op["wall"] for op in ops if not op["traced"])
    values["trace.traced_op_p50_s"] = traced_p50
    values["trace.untraced_op_p50_s"] = untraced_p50
    values["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1.0
    values["host.ref_s"] = statistics.median(op["ref"] for op in ops)
    values.update(result["counts"])
    return values


def with_units(values: dict, trace: bool) -> dict:
    """Metrics in BENCHMARK.json order as name -> (value, unit); the names
    computed here must be exactly the ones BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing "
                           f"{sorted(set(names) - set(values))}, undeclared "
                           f"{sorted(set(values) - set(names))}")
    return {m["name"]: (values[m["name"]], m["unit"]) for m in declared}


def environment(args, result: dict) -> dict:
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "counts": result["counts"],
        "rss_scope": "ru_maxrss of the benchmark's own worker processes only",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qcdistort" / "__init__.py").is_file():
        print(f"error: no qcdistort package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.workload == "analyze_lib":
            result = run_lib_workload(args.seed, args.seconds, bool(args.trace), work)
        else:
            result = run_cli_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = result["ops"]
    failed = sum(op["failed"] for op in ops)
    metrics = with_units(per_layer(result) if args.trace else end_to_end(result),
                         bool(args.trace))
    for err in result["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(
            [{"op": i, "key": op["key"], "wall": op["wall"], "spans": op["spans"]}
             for i, op in enumerate(ops) if op["traced"]]))
        print(f"spans: {trace_path.relative_to(ROOT)}")
    walls = sorted(op["wall"] for op in ops)
    print(f"ops: {len(ops)} attempted, {failed} failed "
          f"(fail_frac {failed / len(ops):.4f}); op wall min {walls[0]:.4f} s, "
          f"max {walls[-1]:.4f} s")
    for name, value in raw_op_times(ops).items():
        print(f"{name} {value} {'1/s' if name == 'faces_per_s' else 's'} (raw)")
    if len(walls) >= 100:
        p90 = statistics.quantiles(walls, n=10)[-1]
        print(f"op_p90_s {p90} s (raw) over {len(walls)} ops")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print("env: " + json.dumps(environment(args, result)))
    correct = failed == 0 and not result["errors"]
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
