"""Benchmark runner body: the environment block, the round loops of the
untraced and traced runs, the result file and the reference generator.

Imported by ``run.py`` after it capped the BLAS threads and put this
checkout's ``src/`` first on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

import calibrate
import grayscott
import workloads as wl
from grayscott import cli, spectral
from run import BLAS_THREAD_VARS
from spans import COUNT_UNITS, PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

MIN_ROUNDS = 3  # untraced rounds per run, however short --seconds is
MIN_TRACED_ROUNDS = 2  # per kind (traced, untraced) in a traced run
SETUP_PROBES = 5  # fresh processes timed for setup_s

END_TO_END = (
    ("setup_s", "s"),
    ("path_steps_per_s", "path-steps/s"),
    ("peak_rss_mb", "MiB"),
)


# ---------------------------------------------------------------------------
# environment block
# ---------------------------------------------------------------------------


def _blas_threads() -> int | None:
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "thread_caps": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# running CLI calls
# ---------------------------------------------------------------------------


class Bench:
    """One workload at one seed: its config, output area and references."""

    def __init__(self, workload: wl.Workload, seed: int, work_dir: Path,
                 reference: dict | None):
        self.workload = workload
        self.work_dir = work_dir
        self.cfg = wl.config_for(workload, seed)
        self.dt = self.cfg.get("dt", 1e-3)
        self.cfg_path = work_dir / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg, indent=2, sort_keys=True))
        self.reference = reference

    def invoke(self, argv: list[str], tracer=None, round_index: int = 0,
               subcommand: str = "") -> tuple[int | None, float, str]:
        cache = getattr(spectral, "_BASIS_CACHE", None)
        if isinstance(cache, dict):
            cache.clear()  # each call builds its basis, as a fresh CLI process does
        buf = io.StringIO()
        root = tracer.root(round_index, subcommand) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf), root:
                code = cli.main(argv)
        except Exception:  # a crashing call is a failed call, not a crashed benchmark
            code = None
            buf.write(traceback.format_exc())
        return code, time.perf_counter() - t0, buf.getvalue()

    def round(self, index: int, tracer=None) -> dict:
        """Run every CLI call of the workload once, then check the outputs."""
        rec = {"walls": {}, "raw_walls": {}, "path_steps": 0, "bytes_written": 0,
               "picard_iterations": 0, "attempted": 0, "failed": 0, "errors": [],
               "values": {}, "norm_sha256": {}}
        kind = self.workload.calibration
        kernel = calibrate.kernel_seconds(kind)
        rec["kernels"] = [kernel]
        for call in self.workload.calls:
            out_dir = self.work_dir / f"round{index}-{call.subcommand}"
            argv = wl.cli_argv(call, str(self.cfg_path), str(out_dir))
            code, wall, log = self.invoke(argv, tracer, index, call.subcommand)
            kernel_before, kernel = kernel, calibrate.kernel_seconds(kind)
            rec["kernels"].append(kernel)
            rec["raw_walls"][call.subcommand] = wall
            rec["walls"][call.subcommand] = calibrate.calibrated(kind, wall, kernel_before, kernel)
            rec["attempted"] += 1
            problems = [] if code == 0 else [f"exit code {code}: {log.strip()[-400:]}"]
            if not problems:
                try:
                    out = wl.read_outcome(call.subcommand, str(out_dir),
                                          {**self.cfg, "paths": call.paths})
                except (OSError, ValueError, IndexError) as err:
                    problems = [f"unreadable outputs: {err!r}"]
                else:
                    rec["path_steps"] += out.path_steps
                    rec["bytes_written"] += out.bytes_written
                    rec["picard_iterations"] += out.picard_iterations
                    rec["values"][call.subcommand] = out.values
                    if out.norm_sha256:
                        rec["norm_sha256"][call.subcommand] = out.norm_sha256
                    if self.reference is not None:
                        want = self.reference.get(call.subcommand)
                        problems = (wl.compare(out.values, want, self.dt) if want
                                    else ["no reference values"])
            if problems:
                rec["failed"] += 1
                rec["errors"] += [f"round {index} {call.subcommand}: {p}" for p in problems]
            shutil.rmtree(out_dir, ignore_errors=True)
        rec["wall"] = sum(rec["walls"].values())
        return rec

    def setup_times(self, n: int) -> tuple[list[float], list[str]]:
        """Calibrated wall time of ``n`` fresh-process one-step CLI runs of
        this config."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        out_dir = self.work_dir / "setup"
        argv = [sys.executable, str(HERE / "setup_probe.py"), "simulate",
                "--config", str(self.cfg_path), "--override", "paths=1",
                "--override", f"T={self.dt!r}", "--out", str(out_dir)]
        walls, errors = [], []
        kind = self.workload.calibration
        kernel = calibrate.kernel_seconds(kind)
        for _ in range(n + 1):  # the first run warms the file cache and is dropped
            t0 = time.perf_counter()
            proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=120, check=False)
            wall = time.perf_counter() - t0
            kernel_before, kernel = kernel, calibrate.kernel_seconds(kind)
            walls.append(calibrate.calibrated(kind, wall, kernel_before, kernel))
            if proc.returncode != 0:
                errors.append(f"setup probe: exit {proc.returncode}: "
                              f"{proc.stderr.decode(errors='replace')[-400:]}")
            shutil.rmtree(out_dir, ignore_errors=True)
        return walls[1:], errors


def _loop(seconds: float, body) -> None:
    """Call body(i) for i = 0, 1, ... until it reports its minimum done and
    starting another round would overrun ``seconds``."""
    t_start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        done = body(i)
        i += 1
        if done and 2 * time.perf_counter() - t0 - t_start > seconds:
            return


def _metric_name(subcommand: str) -> str:
    return subcommand.replace("-", "_") + "_s"


def run_untraced(bench: Bench, seconds: float) -> tuple[dict, list[dict], dict]:
    rounds: list[dict] = []
    _loop(seconds,
          lambda i: rounds.append(bench.round(i)) or len(rounds) >= MIN_ROUNDS)
    per_call = {_metric_name(c.subcommand):
                statistics.median([r["walls"][c.subcommand] for r in rounds])
                for c in bench.workload.calls}
    # path-steps are the same in every round; dividing by the sum of the
    # per-call medians is steadier than a median of per-round ratios
    metrics = {
        "path_steps_per_s":
            statistics.median([r["path_steps"] for r in rounds]) / sum(per_call.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, rounds, per_call


def run_traced(bench: Bench, seconds: float, tracer: Tracer
               ) -> tuple[dict, list[dict], list[dict], list[str]]:
    untraced, traced, layer = [], [], []

    def body(i: int) -> bool:
        if i % 2 == 0:
            untraced.append(bench.round(i))
        else:
            tracer.install()
            try:
                rec = bench.round(i, tracer)
            finally:
                tracer.uninstall()
            traced.append(rec)
            layer.append(tracer.round_metrics(i, rec["path_steps"], rec["bytes_written"],
                                              rec["picard_iterations"]))
        return min(len(untraced), len(traced)) >= MIN_TRACED_ROUNDS

    _loop(seconds, body)
    units = dict(PER_LAYER)
    metrics, unstable = {}, []
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            metrics[name] = (statistics.median([r["wall"] for r in traced])
                             - statistics.median([r["wall"] for r in untraced]))
        elif units[name] in COUNT_UNITS:
            values = [m[name] for m in layer]
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                unstable.append(f"{name}: {values}")
        else:
            metrics[name] = statistics.median([m[name] for m in layer])
    return metrics, untraced, traced, unstable


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _fresh_dir(name: str) -> Path:
    path = OUT / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _check_source():
    here = Path(grayscott.__file__).resolve().parent
    if here != (SRC / "grayscott").resolve():
        raise SystemExit(f"error: imported grayscott from {here}, not from {SRC}")


def _print_metric(workload: str, name: str, value, unit: str, basis: str):
    print(f"{workload:12s} {name:40s} {value:>16.6g} {unit:14s} {basis}")


def run_one(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    _check_source()
    if not REFERENCE.is_file():
        raise SystemExit(f"error: missing {REFERENCE}")
    references = json.loads(REFERENCE.read_text())
    workload = wl.WORKLOADS[workload_name]
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    work_dir = _fresh_dir(f"work/{stem}")
    reference = references["seeds"].get(str(seed % wl.SEED_CLASSES), {}).get(workload.name, {})
    bench = Bench(workload, seed, work_dir, reference)
    env = environment()
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)

    attempted, failed, errors, per_call = 0, 0, [], {}
    if trace:
        tracer = Tracer()
        metrics, untraced, traced, unstable = run_traced(bench, seconds, tracer)
        tracer.save(str(results / f"{stem}-spans.npz"))
        units = dict(PER_LAYER)
        rounds, n_rounds = untraced + traced, len(traced)
        if tracer.missing:
            print(f"note: not found, so not traced: {', '.join(tracer.missing)}")
        if unstable:
            failed += 1
            errors += [f"count metric differs between traced rounds: {u}" for u in unstable]
            print(f"count check: FAILED, {len(unstable)} count metrics differ between "
                  f"{n_rounds} traced rounds of seed {seed}")
        else:
            n_counts = sum(1 for _, unit in PER_LAYER if unit in COUNT_UNITS)
            print(f"count check: all {n_counts} count metrics repeat exactly across "
                  f"{n_rounds} traced rounds of seed {seed}")
    else:
        setup, setup_errors = bench.setup_times(SETUP_PROBES)
        attempted += len(setup)
        failed += len(setup_errors)
        errors += setup_errors
        metrics, rounds, per_call = run_untraced(bench, seconds)
        metrics = {"setup_s": statistics.median(setup), **metrics}
        units = dict(END_TO_END)
        n_rounds = len(rounds)
    attempted += sum(r["attempted"] for r in rounds)
    failed += sum(r["failed"] for r in rounds)
    errors += [e for r in rounds for e in r["errors"]]
    shutil.rmtree(work_dir, ignore_errors=True)

    for name, value in per_call.items():
        _print_metric(workload.name, name, value, "s", f"median of {n_rounds} rounds")
    for name, value in metrics.items():
        unit = units[name]
        basis = (f"median of {SETUP_PROBES} processes" if name == "setup_s"
                 else "at exit" if name == "peak_rss_mb"
                 else "per round, exact" if unit in COUNT_UNITS
                 else f"median of {n_rounds} rounds")
        _print_metric(workload.name, name, value, unit, basis)
    print(f"{workload.name:12s} {'failed_frac':40s} {failed:>10d} / {attempted:<5d} "
          "failed/attempted")
    for err in errors[:20]:
        print(f"error: {err}")
    print("environment: " + json.dumps(env, sort_keys=True))

    reported = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    result = {
        "workload": workload.name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "config": bench.cfg, "environment": env, "rel_tol": wl.REL_TOL,
        "attempted": attempted, "failed": failed, "errors": errors,
        "metrics": reported, "per_call_s": per_call,
        "rounds": [{k: r[k] for k in ("walls", "raw_walls", "kernels", "wall", "path_steps",
                                      "bytes_written", "attempted", "failed", "norm_sha256")}
                   for r in rounds],
    }
    (results / f"{stem}.json").write_text(json.dumps(result, indent=2, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def make_reference() -> int:
    """Store the reference values of one round per workload and seed class."""
    _check_source()
    seeds = {}
    for seed in range(wl.SEED_CLASSES):
        seeds[str(seed)] = {}
        for name, workload in wl.WORKLOADS.items():
            bench = Bench(workload, seed, _fresh_dir(f"work/reference-{name}"), None)
            rec = bench.round(0)
            if rec["failed"]:
                print("\n".join(rec["errors"]), file=sys.stderr)
                return 1
            seeds[str(seed)][name] = rec["values"]
            shutil.rmtree(bench.work_dir, ignore_errors=True)
            print(f"seed class {seed}: {name} done", flush=True)
    doc = {"rel_tol": wl.REL_TOL, "residual_decades": wl.RESIDUAL_DECADES,
           "environment": environment(), "seeds": seeds}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


