"""Benchmark runner: set up, run a workload for a fixed time, check, report.

Imported by ``run.py`` after it has pinned the BLAS thread count and put
the repository's ``src`` on ``sys.path``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from instrument import PROFILE_LAYERS, Instrument, layer_metrics
from workloads import WORKLOADS, quality, workload_checks

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
IMPORT_SAMPLES = 3
# Pass k of a run with seed S runs the inputs of seed S + k * PASS_SEED_STRIDE:
# far enough apart that passes of nearby seeds never share inputs.
PASS_SEED_STRIDE = 1_000_000

# Every end-to-end metric of the report: unit, better direction.
E2E_UNITS = {
    "wall_s": ("s", "lower"),
    "evals_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "query_gap_ms_p50": ("ms", "lower"),
    "query_gap_ms_p99": ("ms", "lower"),
    "query_gaps": ("count", "-"),
    "peak_rss_mb": ("MB", "lower"),
    "evals_to_tol_median": ("count", "lower"),
    "final_regret_median": ("1", "lower"),
    "cum_regret_median": ("1", "lower"),
    "ucb.cum_regret_median": ("1", "-"),
    "envelope_coverage": ("fraction", "higher"),
    "argmax_retention": ("fraction", "higher"),
    "failed_frac": ("fraction", "lower"),
}


def layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s", ".wall_s")):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "fraction"
    return "count"


@dataclass
class Pass:
    """Summary of one pass of a workload; the runs themselves are not kept."""

    seed: int
    wall: float
    construct_s: float
    evals: int
    runs: int
    gaps_ms: np.ndarray
    digest: str
    quality: dict
    failures: list = field(default_factory=list)
    failed_runs: int = 0
    spans: list = field(default_factory=list)


def run_failures(rec, lattice_tol: float = 1e-6) -> list[str]:
    """Per-run checks: the trace is a valid, honest record of the run."""
    if rec.error is not None:
        return [rec.error]
    trace = rec.trace
    pts, vals = trace.points, trace.values
    out = []
    if len(trace) > rec.config.max_evaluations:
        out.append(f"{len(trace)} evaluations exceed the budget")
    if len(rec.calls) != len(trace):
        out.append(f"{len(rec.calls)} objective calls for {len(trace)} evaluations")
    if len(pts) and np.unique(pts, axis=0).shape[0] != len(pts):
        out.append("duplicate points")
    lower, upper = rec.grid.lower, rec.grid.upper
    if np.any(pts < lower) or np.any(pts > upper):
        out.append("point outside the box")
    idx = (pts - lower) / (upper - lower) * float(2**rec.finest_level)
    if len(pts) and float(np.max(np.abs(idx - np.rint(idx)))) > lattice_tol:
        out.append(f"point off the level-{rec.finest_level} lattice")
    if np.any(np.diff(trace.incumbent_values) < 0.0):
        out.append("incumbent decreased")
    if any(rec.objective(p) != v for p, v in zip(pts, vals)):
        out.append("a traced value differs from the objective at its point")
    return out


def run_pass(name: str, params: dict, seed: int, trace: bool) -> Pass:
    """Run the workload once on the inputs of ``seed``, then check it."""
    RESULTS.mkdir(exist_ok=True)
    gc.collect()
    with Instrument(name, trace) as inst:
        started = perf_counter()
        try:
            output, error = WORKLOADS[name].run(params, seed, RESULTS), None
        except Exception:  # noqa: BLE001 - a failing workload is reported, not fatal
            output, error = None, traceback.format_exc()
        wall = perf_counter() - started
    runs = inst.runs
    failures, failed_runs = [], 0
    digest = hashlib.sha256()
    gaps = [np.zeros(0)]
    for rec in runs:
        fails = run_failures(rec)
        if fails:
            failed_runs += 1
            failures += [f"{rec.run_id}: {f}" for f in fails]
        if rec.trace is not None:
            digest.update(np.ascontiguousarray(rec.trace.points).tobytes())
            digest.update(np.ascontiguousarray(rec.trace.values).tobytes())
        calls = np.asarray(rec.calls).reshape(-1, 2)
        gaps.append((calls[1:, 0] - calls[:-1, 1]) * 1e3)
    if error is not None:
        failures.append(error.strip().splitlines()[-1])
        workload_failures = True
    else:
        more = workload_checks(name, params, seed, output, runs)
        failures += more
        workload_failures = bool(more)
    if workload_failures:
        # a workload-level failure spoils every run of the pass
        failed_runs = max(len(runs), 1)
    return Pass(
        seed=seed, wall=wall, construct_s=inst.construct_s,
        evals=sum(len(rec.calls) for rec in runs), runs=max(len(runs), 1),
        gaps_ms=np.concatenate(gaps), digest=digest.hexdigest(),
        quality=quality(name, runs, output) if error is None else {},
        failures=failures, failed_runs=failed_runs, spans=inst.spans,
    )


def import_seconds() -> list[float]:
    """Time ``import bnbopt`` in fresh interpreters (numpy and scipy included)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import bnbopt; "
            "print(time.perf_counter() - t)")
    out = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def e2e_metrics(passes: list[Pass], imports: list[float]) -> dict:
    gaps = np.concatenate([p.gaps_ms for p in passes])
    m = {
        "wall_s": statistics.median(p.wall for p in passes),
        "evals_per_s": statistics.median(p.evals / p.wall for p in passes),
        "setup_s": statistics.median(imports)
        + statistics.median(p.construct_s for p in passes),
        "query_gap_ms_p50": float(np.percentile(gaps, 50)) if gaps.size else 0.0,
        "query_gap_ms_p99": float(np.percentile(gaps, 99)) if gaps.size else 0.0,
        "query_gaps": int(gaps.size),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # quality metrics of the first pass, whose inputs are the seed's own
    m.update(passes[0].quality)
    return m


def run_record(seed: int) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload_seed": seed,
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            params: dict | None = None) -> dict:
    """Run one workload for ``seconds`` and return its full result.

    Pass k runs the inputs of seed ``seed + k * PASS_SEED_STRIDE``, so a run
    measures several independent input draws and pass 0 is the seed's own. Passes
    continue while the next one is expected to fit in ``seconds``; a traced
    run alternates an untraced and a traced pass on the same inputs.
    """
    params = WORKLOADS[name].full if params is None else params
    imports = [] if trace else import_seconds()
    plain: list[Pass] = []
    traced: list[Pass] = []
    failures: list[str] = []
    started = perf_counter()
    while True:
        pass_seed = seed + len(plain) * PASS_SEED_STRIDE
        plain.append(run_pass(name, params, pass_seed, trace=False))
        last = plain[-1].wall
        if trace:
            traced.append(run_pass(name, params, pass_seed, trace=True))
            last += traced[-1].wall
            if traced[-1].digest != plain[-1].digest:
                failures.append(f"seed {pass_seed}: tracing changed the traces")
        if perf_counter() - started + last > seconds:
            break
    passes = plain + traced
    for p in passes:
        failures += [f for f in p.failures if f not in failures]
    attempted = sum(p.runs for p in passes)
    failed = sum(p.failed_runs for p in passes)
    if failures and failed == 0:
        failed = 1
    if trace:
        per_pass = [layer_metrics(p.spans) for p in traced]
        metrics = {key: statistics.median(m[key] for m in per_pass)
                   for key in per_pass[0]}
        metrics["trace.wall_s"] = statistics.median(p.wall for p in traced)
        metrics["trace.overhead_frac"] = (
            metrics["trace.wall_s"] / statistics.median(p.wall for p in plain) - 1.0)
    else:
        metrics = e2e_metrics(plain, imports)
        metrics["failed_frac"] = failed / attempted
    return {
        "workload": name,
        "record": run_record(seed),
        "params": params,
        "trace": trace,
        "passes": [{"seed": p.seed, "wall_s": p.wall, "trace_digest": p.digest}
                   for p in plain],
        "traced_pass_walls": [p.wall for p in traced],
        "import_s": imports,
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "trace_digest": plain[0].digest,
        "metrics": metrics,
        "spans": [p.spans for p in traced],
    }


def write_outputs(result: dict) -> Path:
    """Write the run record and, for a traced run, every span, when the run ends."""
    RESULTS.mkdir(exist_ok=True)
    seed = result["record"]["workload_seed"]
    stem = f"{result['workload']}-seed{seed}-trace{int(result['trace'])}"
    spans = result.pop("spans")
    if result["trace"]:
        with (RESULTS / f"{stem}-spans.jsonl").open("w") as handle:
            for k, pass_spans in enumerate(spans):
                for name, start, end, parent, run, counts in pass_spans:
                    handle.write(json.dumps(
                        {"pass": k, "name": name, "start": start, "end": end,
                         "parent": parent, "run": run, "counts": counts}) + "\n")
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path


def print_report(result: dict) -> None:
    m = result["metrics"]
    rec = result["record"]
    print(f"workload {result['workload']}  seed {rec['workload_seed']}  "
          f"passes {len(result['passes'])}  traced {result['trace']}")
    print(f"  python {rec['python']}  numpy {rec['numpy']}  scipy {rec['scipy']}  "
          f"{rec['blas']}  BLAS threads {rec['blas_threads']}  nproc {rec['nproc']}")
    print(f"  git {rec['git_sha']}  src sha256 {rec['src_sha256'][:16]}  "
          f"trace digest {result['trace_digest'][:16]}")
    if result["trace"]:
        for key in sorted(m):
            print(f"  {key:34s} {m[key]:>14.6g} {layer_unit(key)}")
        print("  self time as a share of the traced pass:")
        for layer in sorted(PROFILE_LAYERS, key=lambda k: -m[f"{k}.self_s"]):
            if m[f"{layer}.calls"]:
                share = 100.0 * m[f"{layer}.self_s"] / m["trace.wall_s"]
                print(f"    {layer:32s} {share:6.1f} %")
    else:
        for key, (unit, better) in E2E_UNITS.items():
            if key in m:
                print(f"  {key:24s} {m[key]:>14.6g} {unit:8s} ({better} is better)")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def declared(key: str) -> list[dict]:
    """One list of BENCHMARK.json: workloads, end_to_end or per_layer."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())[key]


def declared_metrics(trace: bool) -> list[dict]:
    return declared("per_layer" if trace else "end_to_end")


def final_line(result: dict) -> str:
    """The result line: the metrics BENCHMARK.json declares for this pass kind."""
    metrics = {
        spec["name"]: {"value": float(result["metrics"][spec["name"]]),
                       "unit": spec["unit"]}
        for spec in declared_metrics(result["trace"])
    }
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description="bnbopt benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def run_all(args, entry: Path) -> int:
    """Every declared workload, each in its own process; one summary line at the end."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in (w["name"] for w in declared("workloads")):
        done = subprocess.run(
            [sys.executable, str(entry), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, cwd=ROOT,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        try:
            last = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return done.returncode or 1
        correct = correct and last["correct"] and done.returncode == 0
        attempted += last["attempted"]
        failed += last["failed"]
        for key, value in last["metrics"].items():
            metrics[f"{name}/{key}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv, entry: Path) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args, entry)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = write_outputs(result)
    print_report(result)
    print(f"  record: {os.path.relpath(path, ROOT)}")
    print(final_line(result))
    return 0 if result["correct"] else 1
