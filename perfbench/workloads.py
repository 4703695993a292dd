"""The benchmark's workloads. Everything random in a workload derives from its seed.

Each workload calls bnbopt through module attributes (``cli.main``,
``bnb.run``, ``bench.quadratic_objective``, ...) so the benchmark's wrappers
see every call. All are closed loop with one caller: an optimizer run waits
for each objective value before it asks for the next.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bnbopt import bench, bnb, cli
from bnbopt.kernels import KernelSpec
from bnbopt.lattice import DyadicGrid


def regret_1d(p: dict, seed: int, tmp_root: Path) -> dict:
    """``bnbopt compare`` of bnb against plain UCB on 1-D prior draws."""
    printed = io.StringIO()
    with tempfile.TemporaryDirectory(dir=tmp_root) as out, \
            contextlib.redirect_stdout(printed):
        code = cli.main([
            "compare", "--objective", "gp-sample", "--strategies", "bnb,ucb",
            "--seeds", f"{seed}..{seed + p['n_seeds'] - 1}",
            "--budget", str(p["budget"]), "--max-level", str(p["max_level"]),
            "--alpha", "0.1", "--lengthscale", "0.3", "--out", out,
        ])
        summary = []
        if code == cli.EXIT_OK:
            with (Path(out) / "summary.csv").open(newline="") as handle:
                summary = list(csv.DictReader(handle))
    return {"exit_code": code, "summary": summary}


def bowl_1d(p: dict, seed: int, tmp_root: Path) -> dict:
    """One long run on a steep 1-D bowl: many rank-one factor appends."""
    center = np.random.default_rng(seed).uniform(0.2, 0.8, size=1)
    objective = bench.quadratic_objective(center, 50.0, 1.0, [0.0], [1.0])
    config = bnb.RunConfig(alpha=0.05, max_evaluations=p["budget"],
                           max_level=p["max_level"], seed=seed)
    bnb.run(objective, KernelSpec.isotropic("se", 1, 0.3),
            DyadicGrid([0.0], [1.0], 0, p["max_level"]), config)
    return {}


def envelope_1d(p: dict, seed: int, tmp_root: Path) -> dict:
    """The 200-seed envelope audit (library call; see README for why)."""
    grid = DyadicGrid([0.0], [1.0], 0, p["level"])
    report = bench.envelope_experiment(
        KernelSpec.isotropic("se", 1, 0.3), grid, p["level"], 0.1,
        p["n_seeds"], budget=p["budget"], first_seed=seed,
    )
    return {"report": report}


def bowl_3d(p: dict, seed: int, tmp_root: Path) -> dict:
    """Several runs on 3-D bowls: cover enumeration and shrink at d > 1."""
    centers = np.random.default_rng(seed).uniform(0.2, 0.8, size=(p["runs"], 3))
    spec = KernelSpec.isotropic("se", 3, 0.5)
    grid = DyadicGrid([0.0] * 3, [1.0] * 3, 0, p["max_level"])
    for i, center in enumerate(centers):
        objective = bench.quadratic_objective(center, 1.0, 1.0,
                                              [0.0] * 3, [1.0] * 3)
        config = bnb.RunConfig(alpha=0.05, max_evaluations=p["budget"],
                               max_level=p["max_level"], seed=seed + i)
        bnb.run(objective, spec, grid, config)
    return {}


@dataclass(frozen=True)
class Workload:
    name: str
    run: object
    tol: float
    full: dict
    tiny: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload("regret-1d", regret_1d, 1e-6,
                 {"n_seeds": 20, "budget": 200, "max_level": 10},
                 {"n_seeds": 2, "budget": 30, "max_level": 6}),
        Workload("bowl-1d", bowl_1d, 1e-9,
                 {"budget": 1500, "max_level": 24},
                 {"budget": 80, "max_level": 12}),
        Workload("envelope-1d", envelope_1d, 1e-6,
                 {"level": 8, "n_seeds": 200, "budget": 200},
                 {"level": 4, "n_seeds": 100, "budget": 20}),
        Workload("bowl-3d", bowl_3d, 1e-3,
                 {"runs": 8, "budget": 1000, "max_level": 10},
                 {"runs": 2, "budget": 60, "max_level": 4}),
    )
}


def workload_checks(name: str, p: dict, seed: int, output: dict, runs) -> list[str]:
    """Failures of the checks that concern a whole workload, not one run."""
    failures = []
    expected_runs = {
        "regret-1d": 2 * p.get("n_seeds", 0),
        "bowl-1d": 1,
        "envelope-1d": p.get("n_seeds", 0),
        "bowl-3d": p.get("runs", 0),
    }[name]
    if len(runs) != expected_runs:
        failures.append(f"{len(runs)} optimizer runs, expected {expected_runs}")
    if name == "regret-1d":
        if output["exit_code"] != cli.EXIT_OK:
            return failures + [f"bnbopt compare exited {output['exit_code']}"]
        medians = regret_medians(runs)
        if not medians["cum_regret_median"] < medians["ucb.cum_regret_median"]:
            failures.append(
                "bnb median cumulative regret "
                f"{medians['cum_regret_median']} is not below UCB's "
                f"{medians['ucb.cum_regret_median']}"
            )
        rows = {row["strategy"]: row for row in output["summary"]}
        for strategy, prefix in (("bnb", ""), ("ucb", "ucb.")):
            row = rows.get(strategy, {})
            for column, metric in (
                ("median_final_simple_regret", "final_regret_median"),
                ("median_final_cumulative_regret", "cum_regret_median"),
            ):
                want = medians.get(prefix + metric)
                if want is None or float(row.get(column, "nan")) != want:
                    failures.append(
                        f"summary.csv {strategy} {column}={row.get(column)} "
                        f"does not match the traces ({want})"
                    )
    if name == "envelope-1d":
        report = output["report"]
        n = len(report.seeds)
        threshold = 1.0 - 0.1 - 3.0 * math.sqrt(0.1 * 0.9 / n)
        if report.seeds != tuple(range(seed, seed + p["n_seeds"])):
            failures.append("envelope audit did not run the requested seeds")
        if not report.coverage >= threshold:
            failures.append(
                f"envelope coverage {report.coverage} below {threshold:.4f}"
            )
    return failures


def regret_medians(runs) -> dict[str, float]:
    """Median final and cumulative regret per strategy ("ucb." prefix for UCB)."""
    out = {}
    for strategy, prefix in (("bnb", ""), ("ucb", "ucb.")):
        series = [bench.regret_series(r.trace, r.objective)
                  for r in runs if r.strategy == strategy and r.trace is not None]
        if series:
            out[prefix + "final_regret_median"] = float(
                np.median([s.simple[-1] for s in series]))
            out[prefix + "cum_regret_median"] = float(
                np.median([s.cumulative[-1] for s in series]))
    return out


def evals_to_tol(run, tol: float) -> int:
    """Evaluations until the incumbent's simple regret first reaches ``tol``."""
    regret = bench.regret_series(run.trace, run.objective).simple
    hits = np.flatnonzero(regret <= tol)
    return int(hits[0]) + 1 if hits.size else run.config.max_evaluations + 1


def quality(name: str, runs, output: dict) -> dict[str, float]:
    """Solution-quality metrics of one pass; deterministic for its inputs."""
    bnb_runs = [r for r in runs if r.strategy == "bnb" and r.trace is not None]
    out = {}
    if bnb_runs:
        tol = WORKLOADS[name].tol
        out["evals_to_tol_median"] = float(
            np.median([evals_to_tol(r, tol) for r in bnb_runs]))
    medians = regret_medians(runs)
    medians.pop("ucb.final_regret_median", None)
    out.update(medians)
    if name == "envelope-1d":
        out["envelope_coverage"] = output["report"].coverage
        out["argmax_retention"] = output["report"].retention
    return out
