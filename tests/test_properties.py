"""Property tests of the optimizer's invariants over random small problems."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from bnbopt.bench import (
    boundary_max_objective,
    enumeration_level,
    gp_sample_objective,
    quadratic_objective,
    table_prior,
)
from bnbopt.bnb import RunConfig, _farthest_pair, run
from bnbopt.kernels import FAMILIES, KernelSpec
from bnbopt.lattice import DyadicGrid

# a 1500-point table keeps the prior draw's Gram matrix at 18 MB
TABLE_CAP = 1500


@st.composite
def problems(draw):
    """(objective, spec, grid, config): any dim 1-4, kernel, box and objective."""
    dim = draw(st.integers(1, 4))
    lower = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(dim)])
    upper = lower + np.array([draw(st.floats(0.25, 3.0)) for _ in range(dim)])
    spec = KernelSpec(
        draw(st.sampled_from(FAMILIES)),
        draw(st.floats(0.5, 2.0)),
        tuple(draw(st.floats(0.1, 1.0)) for _ in range(dim)),
    )
    max_level = draw(st.integers(3, 10 if dim <= 2 else 6))
    grid = DyadicGrid(lower, upper, 0, max_level)
    kind = draw(st.sampled_from(["quadratic", "boundary", "gp-sample"]))
    if kind == "quadratic":
        frac = np.array([draw(st.floats(0.05, 0.95)) for _ in range(dim)])
        objective = quadratic_objective(lower + frac * (upper - lower),
                                        draw(st.floats(0.5, 50.0)), 1.0,
                                        lower, upper)
    elif kind == "boundary":
        objective = boundary_max_objective(lower, upper)
    else:
        # run on the table lattice so every sample is a table hit
        prior = table_prior(spec, grid, enumeration_level(grid, TABLE_CAP))
        grid = prior.grid
        objective = gp_sample_objective(prior, draw(st.integers(0, 2**16)))
    config = RunConfig(alpha=draw(st.sampled_from([0.05, 0.1, 0.5])),
                       max_evaluations=draw(st.integers(20, 300)))
    return objective, spec, grid, config


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(problems())
def test_evaluated_points_in_region_are_shrink_candidates(problem):
    # the shrink candidates are the probe cover alone: every point evaluated
    # so far that lies in the region being shrunk must be one of them, bitwise
    objective, spec, grid, config = problem
    events = []
    trace = run(objective, spec, grid, config, observer=events.append)
    assert len(events) == len(trace.iterations)
    assert len({p.tobytes() for p in trace.points}) == len(trace)
    for event in events:
        rec = event.record
        evaluated = trace.points[:rec.T_after]
        assert evaluated.shape[0] == rec.T_after
        assert len({p.tobytes() for p in evaluated}) == rec.T_after
        candidates = {c.tobytes() for c in event.candidates}
        for p in evaluated:
            if rec.region_before.contains(p):
                assert p.tobytes() in candidates


@st.composite
def lattice_subsets(draw):
    """Sorted subsets of a small dyadic lattice (many tied distances) in an
    offset, non-unit box, or of a 1-D span of a few level-24 cells near 0.37,
    where the pruning radius sits closest to the rounding margin."""
    if draw(st.booleans()):
        dim = draw(st.integers(1, 4))
        lower = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(dim)])
        upper = lower + np.array([draw(st.floats(0.25, 3.0)) for _ in range(dim)])
        level = draw(st.integers(1, 5 if dim <= 2 else 2))
        pts = DyadicGrid(lower, upper, 0, level).points(level)
    else:
        h = 2.0 ** -24
        start = round(0.37 / h) + draw(st.integers(-4, 4))
        pts = ((start + np.arange(draw(st.integers(2, 6)))) * h)[:, None]
    picks = draw(st.sets(st.integers(0, len(pts) - 1), min_size=1,
                         max_size=len(pts)))
    return pts[sorted(picks)]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(lattice_subsets())
def test_farthest_pair_is_first_argmax_of_full_matrix(pts):
    dists = cdist(pts, pts)
    i, j = np.unravel_index(int(np.argmax(dists)), dists.shape)
    got_i, got_j, got = _farthest_pair(pts)
    assert (got_i, got_j) == (i, j)
    assert np.float64(got).tobytes() == dists[i, j].tobytes()
