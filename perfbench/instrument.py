"""Wrappers the benchmark installs around bnbopt's public functions.

Every name is patched where its caller looks it up (``bench`` binds ``run``
through ``from .bnb import run``, so ``bench.run`` is patched as well as
``bnb.run``) and restored when the ``Instrument`` context exits.

Two kinds of wrapper:

* capture wrappers, always installed: they record each optimizer run's
  inputs and returned trace, one timestamp pair per optimizer objective
  call, and the time spent constructing objectives. Objective calls made by
  the envelope audit are not recorded, and the clock used for the recorded
  pairs stops while the audit runs, so gaps between calls are optimizer time;
* span wrappers, installed only for a traced pass: one span per call into a
  layer's public function, holding name, start, end, parent span, run id and
  a few counts. Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter

from bnbopt import bench, bnb, cli, gp, kernels, lattice

# span list columns
NAME, START, END, PARENT, RUN, ATTRS = range(6)


@dataclasses.dataclass
class RunRecord:
    """One optimizer run as the benchmark saw it."""

    strategy: str
    objective: object
    grid: object
    config: object
    run_id: str
    calls: list = dataclasses.field(default_factory=list)
    trace: object = None
    error: str | None = None

    @property
    def finest_level(self) -> int:
        if self.strategy == "bnb" and self.config.max_level is not None:
            return self.config.max_level
        return self.grid.max_level


def _escalated(post) -> int:
    return int(post.jitter > gp.DEFAULT_JITTER_FACTOR * post.spec.output_scale)


# (owner, attribute, span name, counts taken from (args, result))
_SPANNED = (
    (cli, "main", "cli.main", None),
    (bench, "envelope_experiment", "bench.envelope_experiment", None),
    (gp, "fit", "gp.fit",
     lambda a, out: {"gp.jitter_escalations": _escalated(out)}),
    (gp, "sample_prior_on_grid", "gp.sample_prior_on_grid", None),
    (gp.GPPosterior, "extend", "gp.extend",
     lambda a, out: {"gp.extend.prior_size": len(a[0]),
                     "gp.jitter_escalations": _escalated(out)}),
    (gp.GPPosterior, "predict_batch", "gp.predict_batch",
     lambda a, out: {"gp.predict_batch.points": len(out[0])}),
    (kernels, "pairwise", "kernels.pairwise",
     lambda a, out: {"kernels.pairwise.entries": out.size}),
    (bnb, "shrink", "bnb.shrink",
     lambda a, out: {"bnb.shrink.candidates": len(a[2]),
                     "bnb.shrink.kept": len(out[0])}),
    (lattice.DyadicGrid, "cover_points", "lattice.cover_points",
     lambda a, out: {"lattice.cover_points.points": len(out)}),
    (lattice.DyadicGrid, "cover_window_size", "lattice.cover_window_size", None),
)


class Instrument:
    """Context manager: install the wrappers for one pass, restore on exit."""

    def __init__(self, workload: str, trace: bool):
        self.workload = workload
        self.trace = trace
        self.runs: list[RunRecord] = []
        self.construct_s = 0.0
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._current: RunRecord | None = None
        self._in_audit = False
        self._paused = 0.0
        self._saved: list[tuple] = []

    def __enter__(self) -> "Instrument":
        try:
            self._patch(bnb, "run", lambda f: self._run_wrapper("bnb", f))
            self._patch(bench, "run", lambda f: self._run_wrapper("bnb", f))
            self._patch(bench, "plain_ucb_run",
                        lambda f: self._run_wrapper("ucb", f))
            for name in ("gp_sample_objective", "quadratic_objective"):
                self._patch(bench, name,
                            lambda f, n=name: self._objective_wrapper(n, f))
            self._patch(bench._EnvelopeAudit, "__call__", self._audit_wrapper)
            if self.trace:
                for owner, attr, span, counts in _SPANNED:
                    self._patch(owner, attr,
                                lambda f, s=span, c=counts: self._spanned(s, f, c))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, attr, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # spans -----------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        run = self._current.run_id if self._current is not None else None
        self.spans.append([name, perf_counter(), 0.0, parent, run, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    def _spanned(self, name, fn, counts):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counts is not None:
                self.spans[idx][ATTRS] = counts(args, out)
            return out

        return wrapper

    # capture ---------------------------------------------------------------

    def _run_wrapper(self, strategy, fn):
        name = "bnb.run" if strategy == "bnb" else "bench.plain_ucb_run"

        def wrapper(objective, spec, grid, config, *args, **kwargs):
            rec = RunRecord(strategy, objective, grid, config,
                            f"{self.workload}:{strategy}:{config.seed}")
            self.runs.append(rec)
            self._current = rec
            idx = self._open(name) if self.trace else None
            try:
                rec.trace = fn(objective, spec, grid, config, *args, **kwargs)
            except Exception as exc:
                rec.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                if idx is not None:
                    self._close(idx)
                self._current = None
            if idx is not None and strategy == "bnb":
                self.spans[idx][ATTRS] = {
                    "bnb.run.truncated": int(rec.trace.truncated),
                    "bnb.iterations": len(rec.trace.iterations),
                    "bnb.evals": len(rec.trace),
                }
            return rec.trace

        return wrapper

    def _objective_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = self._open(f"bench.{name}") if self.trace else None
            started = perf_counter()
            try:
                objective = fn(*args, **kwargs)
            finally:
                self.construct_s += perf_counter() - started
                if idx is not None:
                    self._close(idx)
            return dataclasses.replace(objective, fn=self._timed(objective.fn))

        return wrapper

    def _timed(self, fn):
        def timed(x):
            rec = self._current
            if rec is None or self._in_audit:
                return fn(x)
            idx = self._open("bench.objective") if self.trace else None
            try:
                start = perf_counter()
                value = fn(x)
                end = perf_counter()
            finally:
                if idx is not None:
                    self._close(idx)
            rec.calls.append((start - self._paused, end - self._paused))
            return value

        return timed

    def _audit_wrapper(self, fn):
        def wrapper(audit, event):
            idx = self._open("bench.envelope_audit") if self.trace else None
            started = perf_counter()
            self._in_audit = True
            try:
                return fn(audit, event)
            finally:
                self._in_audit = False
                self._paused += perf_counter() - started
                if idx is not None:
                    self._close(idx)

        return wrapper


# per-layer aggregation -------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


# layers whose self time the expected profile compares
PROFILE_LAYERS = (
    "cli.main", "bench.envelope_experiment", "bench.plain_ucb_run",
    "bench.envelope_audit", "bench.gp_sample_objective",
    "bench.quadratic_objective", "bench.objective", "bnb.run", "bnb.shrink",
    "lattice.cover_points", "lattice.cover_window_size", "gp.fit",
    "gp.sample_prior_on_grid", "gp.extend", "gp.predict_batch",
    "kernels.pairwise",
)

# counts summed from span attributes
COUNTS = (
    "gp.jitter_escalations", "gp.predict_batch.points",
    "kernels.pairwise.entries", "bnb.shrink.candidates", "bnb.shrink.kept",
    "lattice.cover_points.points", "bnb.run.truncated", "bnb.iterations",
    "bnb.evals",
)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times of one traced pass, by metric name."""
    m: dict[str, float] = {}
    for layer in PROFILE_LAYERS:
        m[f"{layer}.calls"] = m[f"{layer}.s"] = m[f"{layer}.self_s"] = 0
    m.update(dict.fromkeys(COUNTS, 0))
    m["gp.extend.refits"] = 0
    for span, own in zip(spans, self_times(spans)):
        name = span[NAME]
        m[f"{name}.calls"] += 1
        m[f"{name}.s"] += span[END] - span[START]
        m[f"{name}.self_s"] += own
        for key, value in (span[ATTRS] or {}).items():
            if key in m:
                m[key] += value
        parent = spans[span[PARENT]] if span[PARENT] >= 0 else None
        if (name == "gp.fit" and parent is not None
                and parent[NAME] == "gp.extend"
                and parent[ATTRS]["gp.extend.prior_size"] > 0):
            m["gp.extend.refits"] += 1
    candidates = m["bnb.shrink.candidates"]
    m["bnb.shrink.kept_ratio"] = m["bnb.shrink.kept"] / candidates if candidates else 0.0
    return m
