"""Command-line entry point: run the optimizer, compare strategies, verify claims."""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import bench, bnb
from .errors import (
    DimensionError,
    DuplicateObservationError,
    GridTooLargeError,
    InsufficientDataError,
)
from .kernels import KernelSpec, smoothness_constant
from .lattice import DyadicGrid

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_CHECK_FAILED = 3
# ValueErrors the library raises mid-run: runtime failures, not usage errors
_LIBRARY_ERRORS = (GridTooLargeError, DuplicateObservationError,
                   InsufficientDataError, DimensionError)

DEFAULT_MAX_LEVEL = 10
CONFIG_KEYS = ("domain.dim", "domain.lower", "domain.upper", "lattice.max_level",
               "kernel.family", "kernel.output_scale", "kernel.lengthscales")
STRATEGIES = ("bnb", "ucb", "random")
# least log-log slope of sup sigma against delta that `verify variance` accepts
VARIANCE_MIN_SLOPE = 1.8


def _fmt(value: float) -> str:
    # repr of a Python float is the shortest round-trip decimal
    return repr(float(value))


def _split_list(text: str, what: str = "list") -> list[str]:
    """The stripped entries of a comma-separated list; an empty entry is a
    usage error that quotes the text."""
    toks = [tok.strip() for tok in text.split(",")]
    if "" in toks:
        raise ValueError(f"empty entry in {what} {text!r}")
    return toks


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in _split_list(text)]


def _parse_range(text: str, what: str) -> list[int]:
    """"A..B" is the inclusive range; otherwise seeds are a count "N" (seeds
    0..N-1) and levels a comma-separated list. `what` is "seed" or "level"."""
    if ".." in text:
        a, b = text.split("..", 1)
        lo, hi = int(a), int(b)
        if hi < lo:
            raise ValueError(f"empty {what} range {text!r}")
        return list(range(lo, hi + 1))
    if what == "level":
        return [int(tok) for tok in _split_list(text, "level list")]
    n = int(text)
    if n < 1:
        raise ValueError("seed count must be positive")
    return list(range(n))


def _read_config_file(path: str) -> dict[str, str]:
    """Flat `section.key = value` lines over ``CONFIG_KEYS``, each key at most
    once; '#' starts a comment."""
    out: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for number, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r} in {path}; known "
                             f"keys: {', '.join(CONFIG_KEYS)}")
        if key in line_of:
            raise ValueError(f"config key {key!r} repeated in {path}: lines "
                             f"{line_of[key]} and {number}")
        line_of[key] = number
        out[key] = value
    return out


class _Settings:
    """Resolved options: flags override the config file, which overrides defaults."""

    def __init__(self, args):
        cfg = _read_config_file(args.config) if getattr(args, "config", None) else {}
        self.dim = args.dim if args.dim is not None else int(cfg.get("domain.dim", 1))
        if self.dim < 1:
            raise ValueError("--dim must be a positive integer")
        lower = cfg.get("domain.lower")
        upper = cfg.get("domain.upper")
        self.lower = np.asarray(
            _parse_floats(lower) if lower else [0.0] * self.dim, dtype=float
        )
        self.upper = np.asarray(
            _parse_floats(upper) if upper else [1.0] * self.dim, dtype=float
        )
        if self.lower.shape != (self.dim,) or self.upper.shape != (self.dim,):
            raise ValueError("domain bounds do not match --dim")
        self.max_level = (
            args.max_level
            if args.max_level is not None
            else int(cfg.get("lattice.max_level", DEFAULT_MAX_LEVEL))
        )
        family = args.kernel if args.kernel is not None else cfg.get("kernel.family", "se")
        scale = (
            args.output_scale
            if args.output_scale is not None
            else float(cfg.get("kernel.output_scale", 1.0))
        )
        ls_text = (
            args.lengthscale
            if args.lengthscale is not None
            else cfg.get("kernel.lengthscales", "0.3")
        )
        scales = _parse_floats(ls_text)
        if len(scales) == 1 and self.dim > 1:
            scales = scales * self.dim
        if len(scales) != self.dim:
            raise ValueError("lengthscales do not match --dim")
        self.spec = KernelSpec(family, scale, tuple(scales))
        self.alpha = args.alpha
        self.budget = args.budget
        self.out_dir = Path(
            args.out or os.environ.get("BNBOPT_OUT") or "bnbopt-out"
        )

    def grid(self) -> DyadicGrid:
        return DyadicGrid(self.lower, self.upper, 0, self.max_level)


def _problem(name: str, settings: _Settings, seeds: list[int]
             ) -> tuple[DyadicGrid, dict[int, bench.Objective]]:
    """The lattice a command's runs use and each seed's objective. gp-sample
    seeds share one table at the deepest level within the enumeration cap and
    run on its lattice, the only points where a draw has values."""
    grid = settings.grid()
    if name == "gp-sample":
        table = bench.table_prior(settings.spec, grid, bench.enumeration_level(grid))
        return table.grid, {seed: bench.gp_sample_objective(table, seed)
                            for seed in seeds}
    if name == "quadratic":
        center = settings.lower + 0.5 * (settings.upper - settings.lower)
        objective = bench.quadratic_objective(center, 1.0, 1.0, settings.lower,
                                              settings.upper)
    else:
        objective = bench.boundary_max_objective(settings.lower, settings.upper)
    return grid, dict.fromkeys(seeds, objective)


def _run_strategy(strategy: str, objective, settings: _Settings, seed: int,
                  grid: DyadicGrid) -> bnb.RunTrace:
    config = bnb.RunConfig(
        alpha=settings.alpha,
        max_evaluations=settings.budget,
        seed=seed,
    )
    if strategy == "bnb":
        return bnb.run(objective, settings.spec, grid, config)
    if strategy == "ucb":
        return bench.plain_ucb_run(objective, settings.spec, grid, config)
    return bench.random_run(objective, grid, config)


def _write_trace_csv(path: Path, trace: bnb.RunTrace, regret: np.ndarray) -> None:
    dim = trace.points.shape[1]
    incumbents = trace.incumbent_values
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["t", *[f"x{i}" for i in range(dim)], "value", "incumbent_value",
             "simple_regret"]
        )
        # tolist gives Python floats, whose repr is what _fmt writes
        rows = zip(range(1, len(trace) + 1), trace.points.tolist(),
                   trace.values.tolist(), incumbents.tolist(), regret.tolist())
        writer.writerows([t, *map(repr, point), repr(value), repr(best), repr(gap)]
                         for t, point, value, best, gap in rows)


def _write_iterations_csv(path: Path, trace: bnb.RunTrace) -> None:
    dim = trace.points.shape[1]
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["iter", "level", "delta", "new_points", "T", "beta", "sup_lcb",
             *[f"region_center{i}" for i in range(dim)], "region_radius", "kept"]
        )
        for rec in trace.iterations:
            writer.writerow(
                [rec.iteration, rec.level, _fmt(rec.delta), rec.new_points_count,
                 rec.T_after, _fmt(rec.beta_T), _fmt(rec.sup_lcb),
                 *[_fmt(v) for v in rec.region_after.center],
                 _fmt(rec.region_after.radius), rec.kept_count]
            )


def cmd_run(args) -> int:
    settings = _Settings(args)
    seed = args.seed if args.seed is not None else 0
    grid, objectives = _problem(args.objective, settings, [seed])
    objective = objectives[seed]
    started = time.perf_counter()
    trace = _run_strategy("bnb", objective, settings, seed, grid)
    elapsed = time.perf_counter() - started
    regret = bench.regret_series(trace, objective).simple
    settings.out_dir.mkdir(parents=True, exist_ok=True)
    _write_trace_csv(settings.out_dir / "trace.csv", trace, regret)
    _write_iterations_csv(settings.out_dir / "iterations.csv", trace)
    print(
        f"T={len(trace)} final_regret={float(regret[-1]):.6g} "
        f"truncated={trace.truncated} wall={elapsed:.2f}s"
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    settings = _Settings(args)
    strategies = _split_list(args.strategies, "strategy list")
    if len(set(strategies)) != len(strategies):
        raise ValueError(f"strategy listed twice in {args.strategies!r}")
    for s in strategies:
        if s not in STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}; choose from {STRATEGIES}")
    seeds = _parse_range(args.seeds, "seed")
    settings.out_dir.mkdir(parents=True, exist_ok=True)
    # one objective per seed, shared by every strategy
    grid, objectives = _problem(args.objective, settings, seeds)
    summary_rows = []
    for strategy in strategies:
        finals, cumulatives, amps, rates, r2s = [], [], [], [], []
        for seed in seeds:
            objective = objectives[seed]
            trace = _run_strategy(strategy, objective, settings, seed, grid)
            series = bench.regret_series(trace, objective)
            _write_trace_csv(
                settings.out_dir / f"{strategy}_seed{seed}_trace.csv",
                trace, series.simple,
            )
            finals.append(float(series.simple[-1]))
            cumulatives.append(float(series.cumulative[-1]))
            try:
                fitted = bench.fit_rate(series)
            except InsufficientDataError:
                continue
            amps.append(fitted.amplitude)
            rates.append(fitted.rate)
            r2s.append(fitted.r_squared)
        summary_rows.append(
            {
                "strategy": strategy,
                "seeds": len(seeds),
                "median_final_simple_regret": _fmt(float(np.median(finals))),
                "median_final_cumulative_regret": _fmt(float(np.median(cumulatives))),
                "fit_amplitude_median": _fmt(float(np.median(amps))) if amps else "",
                "fit_rate_median": _fmt(float(np.median(rates))) if rates else "",
                "fit_r2_median": _fmt(float(np.median(r2s))) if r2s else "",
                "fits_used": len(rates),
            }
        )
    with (settings.out_dir / "summary.csv").open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(summary_rows[0].keys()))
        writer.writeheader()
        writer.writerows(summary_rows)
    for row in summary_rows:
        print(
            f"{row['strategy']}: median final regret "
            f"{row['median_final_simple_regret']}, median cumulative "
            f"{row['median_final_cumulative_regret']}"
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    settings = _Settings(args)
    exp_dir = settings.out_dir / args.target  # one directory per experiment
    exp_dir.mkdir(parents=True, exist_ok=True)
    if args.target == "variance":
        levels = _parse_range(args.levels, "level")
        result = bench.variance_bound_experiment(
            settings.spec, settings.lower, settings.upper, levels
        )
        with (exp_dir / "variance.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["level", "delta", "sup_sigma"])
            for lev, d, s in zip(result.levels, result.deltas, result.sup_sigmas):
                writer.writerow([lev, _fmt(d), _fmt(s)])
        # levels at the sqrt(jitter) floor say nothing about the lemma
        judged = result.above_floor()
        floored = [lev for lev in result.levels if lev not in judged.levels]
        # the variance lemma is an upper bound, sup sigma <= Q * delta^2 / 4,
        # so decay may be faster than quadratic but never slower
        bounds = smoothness_constant(settings.spec) * judged.deltas ** 2 / 4.0
        decreasing = bool(np.all(np.diff(judged.sup_sigmas) < 0.0))
        bounded = bool(np.all(judged.sup_sigmas <= bounds))
        # under two judged levels the slope is NaN, and the check fails
        ok = judged.slope >= VARIANCE_MIN_SLOPE and decreasing and bounded
        print(
            f"variance: slope={judged.slope:.4f} (expect >= {VARIANCE_MIN_SLOPE}) "
            f"strictly_decreasing={decreasing} "
            f"sup_sigma<=Q*delta^2/4={bounded} levels={list(judged.levels)} "
            f"at_jitter_floor={floored} -> {'PASS' if ok else 'FAIL'}"
        )
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    seeds = _parse_range(args.seeds, "seed")
    n_seeds = len(seeds)
    grid = settings.grid()
    level = bench.enumeration_level(grid)
    report = bench.envelope_experiment(
        settings.spec, grid, level, settings.alpha, n_seeds,
        budget=settings.budget, first_seed=seeds[0],
    )
    with (exp_dir / "envelope.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["seed", "max_envelope_ratio", "argmax_retained"])
        for seed, ratio, kept in zip(
            report.seeds, report.max_ratios, report.retained
        ):
            writer.writerow([seed, _fmt(ratio), int(kept)])
    alpha = settings.alpha
    threshold = 1.0 - alpha - 3.0 * math.sqrt(alpha * (1.0 - alpha) / n_seeds)
    ok = report.coverage >= threshold
    print(
        f"envelope: coverage={report.coverage:.4f} "
        f"threshold={threshold:.4f} retention={report.retention:.4f} "
        f"seeds={n_seeds} -> {'PASS' if ok else 'FAIL'}"
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dim", type=int, default=None, help="domain dimension")
    parser.add_argument("--kernel", choices=["se", "matern52"], default=None)
    parser.add_argument("--lengthscale", default=None,
                        help="comma-separated lengthscales (single value repeats)")
    parser.add_argument("--output-scale", type=float, default=None)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--budget", type=int, default=200)
    parser.add_argument("--max-level", type=int, default=None)
    parser.add_argument("--out", default=None,
                        help="output directory (default $BNBOPT_OUT or ./bnbopt-out)")
    parser.add_argument("--config", default=None,
                        help="flat section.key = value config file; flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnbopt",
        description="Branch-and-bound Gaussian-process optimizer and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one optimizer run, trace written as CSV")
    _add_common(p_run)
    p_run.add_argument("--objective", required=True,
                       choices=["gp-sample", "quadratic", "boundary"])
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(handler=cmd_run)

    p_cmp = sub.add_parser("compare", help="strategies x seeds regret comparison")
    _add_common(p_cmp)
    p_cmp.add_argument("--objective", default="gp-sample",
                       choices=["gp-sample", "quadratic", "boundary"])
    p_cmp.add_argument("--seeds", default="20",
                       help='"A..B" inclusive range or a count "N"')
    p_cmp.add_argument("--strategies", default="bnb,ucb,random")
    p_cmp.set_defaults(handler=cmd_compare)

    p_ver = sub.add_parser("verify", help="scientific checks (exit 3 on failure)")
    _add_common(p_ver)
    p_ver.add_argument("target", choices=["variance", "envelope"])
    p_ver.add_argument("--levels", default="1..5", help="variance cover levels")
    p_ver.add_argument("--seeds", default="200", help="envelope seed count/range")
    p_ver.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        if isinstance(exc, ValueError) and not isinstance(exc, _LIBRARY_ERRORS):
            # bad option values surface as usage errors
            parser.exit(EXIT_USAGE, f"bnbopt: error: {exc}\n")
        print(f"bnbopt: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
