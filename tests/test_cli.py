"""Command-line behavior: outputs, determinism, exit codes."""

import csv
import os

import numpy as np
import pytest

from bnbopt import bench, gp
from bnbopt.cli import CONFIG_KEYS, main
from bnbopt.errors import DuplicateObservationError


def run_cli(*args: str) -> int:
    try:
        return main(list(args))
    except SystemExit as exc:  # argparse and usage errors
        return int(exc.code) if exc.code is not None else 0


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestRun:
    def test_quadratic_run_writes_both_csvs(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli("run", "--objective", "quadratic", "--dim", "1",
                       "--budget", "50", "--seed", "7", "--out", str(out))
        assert code == 0
        rows = read_csv(out / "trace.csv")
        assert 1 <= len(rows) <= 50
        assert list(rows[0].keys()) == [
            "t", "x0", "value", "incumbent_value", "simple_regret"
        ]
        iters = read_csv(out / "iterations.csv")
        assert len(iters) >= 1
        assert "region_radius" in iters[0]

    def test_anisotropic_lengthscales_run(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli("run", "--objective", "quadratic", "--dim", "2",
                       "--lengthscale", "0.2,0.6", "--budget", "40",
                       "--out", str(out))
        assert code == 0
        assert list(read_csv(out / "trace.csv")[0])[1:3] == ["x0", "x1"]

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("run", "--objective", "quadratic", "--budget", "40",
                           "--seed", "3", "--out", str(out)) == 0
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
        assert (a / "iterations.csv").read_bytes() == (b / "iterations.csv").read_bytes()

    def test_trace_floats_round_trip(self, tmp_path):
        out = tmp_path / "o"
        # the default gp-sample run stays on its table, so it exits 0
        code = run_cli("run", "--objective", "gp-sample", "--budget", "30",
                       "--max-level", "6", "--seed", "1", "--out", str(out))
        assert code == 0
        rows = read_csv(out / "trace.csv")
        incumbent = -np.inf
        for row in rows:
            value = float(row["value"])  # full round-trip representation
            incumbent = max(incumbent, value)
            assert float(row["incumbent_value"]) == incumbent

    def test_gp_sample_run_stays_on_the_table_lattice(self, tmp_path,
                                                      monkeypatch):
        # --max-level 20 picks the deepest table within the enumeration cap
        # (level 14 at the default cap, a 16,385-point dense fit of several
        # GB); a 257-point cap puts the table at level 8. Seed 0 refines to
        # level 15 when its run is allowed the whole level-20 lattice
        original = bench.enumeration_level
        monkeypatch.setattr(bench, "enumeration_level",
                            lambda grid: original(grid, cap=257))
        out = tmp_path / "o"
        code = run_cli("run", "--objective", "gp-sample", "--max-level", "20",
                       "--budget", "60", "--seed", "0", "--out", str(out))
        assert code == 0
        xs = np.array([float(r["x0"]) for r in read_csv(out / "trace.csv")])
        assert len(xs) > 0
        assert np.array_equal(xs * 2**8, np.round(xs * 2**8))
        levels = [int(r["level"]) for r in read_csv(out / "iterations.csv")]
        assert max(levels) <= 8

    def test_missing_objective_is_usage_error(self, tmp_path):
        assert run_cli("run", "--out", str(tmp_path)) == 2

    def test_env_var_default_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BNBOPT_OUT", str(tmp_path / "envout"))
        assert run_cli("run", "--objective", "quadratic", "--budget", "20") == 0
        assert (tmp_path / "envout" / "trace.csv").exists()

    def test_config_file_sets_domain_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "domain.lower = 0\n"
            "domain.upper = 2\n"
            "kernel.family = matern52\n"
            "kernel.lengthscales = 0.4\n"
            "lattice.max_level = 6  # comment\n"
        )
        out = tmp_path / "o"
        code = run_cli("run", "--objective", "boundary", "--budget", "30",
                       "--config", str(cfg), "--out", str(out))
        assert code == 0
        rows = read_csv(out / "trace.csv")
        xs = [float(r["x0"]) for r in rows]
        assert max(xs) > 1.0  # the configured domain reaches 2

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        # a misspelt key would otherwise run silently on the defaults
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("kernel.lengthscale = 0.05\nlattice.maxlevel = 4\n")
        out = tmp_path / "o"
        code = run_cli("run", "--objective", "quadratic", "--budget", "30",
                       "--config", str(cfg), "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert "'kernel.lengthscale'" in err
        assert all(key in err for key in CONFIG_KEYS)
        assert not out.exists()

    def test_repeated_config_key_is_usage_error(self, tmp_path, capsys):
        # the last line would otherwise win silently
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("lattice.max_level = 4\n# comment\n"
                       "kernel.family = se\nlattice.max_level = 6\n")
        out = tmp_path / "o"
        code = run_cli("run", "--objective", "quadratic", "--budget", "30",
                       "--config", str(cfg), "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert "'lattice.max_level'" in err
        assert "lines 1 and 4" in err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("lattice.max_level 4\n", "malformed config line: 'lattice.max_level 4'"),
        ("domain.lower = 0.0, 0.0\n", "domain bounds do not match --dim"),
        ("domain.upper = inf\n", "lower and upper must be finite"),
        ("domain.lower = -1e308\ndomain.upper = 1e308\n", "upper - lower overflows"),
        ("kernel.lengthscales = 0.2, 0.6\n", "lengthscales do not match --dim"),
        ("kernel.output_scale = inf\n", "output_scale must be finite"),
        ("domain.dim = 0\n", "--dim must be a positive integer"),
        ("domain.dim = 2\ndomain.lower = 0,,0\n", "empty entry in list '0,,0'"),
        ("kernel.lengthscales = 0.3,\n", "empty entry in list '0.3,'"),
    ])
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, text,
                                             message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        code = run_cli("run", "--objective", "quadratic", "--budget", "30",
                       "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, text", [
        (("--dim", "2", "--lengthscale", "0.3,,0.4"), "0.3,,0.4"),
        (("--lengthscale", "0.3,"), "0.3,"),
        (("--lengthscale", ",0.3"), ",0.3"),
    ])
    def test_empty_list_entry_is_usage_error(self, tmp_path, capsys, flags, text):
        out = tmp_path / "o"
        code = run_cli("run", "--objective", "quadratic", "--budget", "30",
                       *flags, "--out", str(out))
        assert code == 2
        assert f"empty entry in list {text!r}" in capsys.readouterr().err
        assert not out.exists()


class TestCompare:
    def test_three_strategies_times_three_seeds(self, tmp_path):
        out = tmp_path / "cmp"
        code = run_cli("compare", "--objective", "gp-sample", "--seeds", "0..2",
                       "--budget", "40", "--max-level", "6", "--out", str(out))
        assert code == 0
        traces = sorted(p.name for p in out.glob("*_trace.csv"))
        assert len(traces) == 9
        summary = read_csv(out / "summary.csv")
        assert [row["strategy"] for row in summary] == ["bnb", "ucb", "random"]

    def test_single_strategy_accepted(self, tmp_path):
        out = tmp_path / "solo"
        code = run_cli("compare", "--strategies", "bnb", "--seeds", "2",
                       "--budget", "30", "--max-level", "5", "--out", str(out))
        assert code == 0
        assert len(list(out.glob("*_trace.csv"))) == 2

    def test_bnb_beats_plain_ucb_on_cumulative_regret(self, tmp_path):
        out = tmp_path / "duel"
        code = run_cli("compare", "--strategies", "bnb,ucb", "--seeds", "0..4",
                       "--budget", "60", "--max-level", "7", "--alpha", "0.1",
                       "--out", str(out))
        assert code == 0
        summary = {row["strategy"]: row for row in read_csv(out / "summary.csv")}
        bnb_cum = float(summary["bnb"]["median_final_cumulative_regret"])
        ucb_cum = float(summary["ucb"]["median_final_cumulative_regret"])
        assert bnb_cum < ucb_cum

    def test_each_seed_objective_built_once(self, tmp_path, monkeypatch):
        built = []
        original = bench.gp_sample_objective

        def counting(*args, **kwargs):
            built.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(bench, "gp_sample_objective", counting)
        out = tmp_path / "once"
        code = run_cli("compare", "--objective", "gp-sample", "--strategies",
                       "bnb,ucb", "--seeds", "0..2", "--budget", "20",
                       "--max-level", "5", "--out", str(out))
        assert code == 0
        assert built == [0, 1, 2]
        assert len(list(out.glob("*_trace.csv"))) == 6

    def test_table_gram_factored_once(self, tmp_path, monkeypatch):
        sizes = []
        original = gp._factor

        def counting(K, *args, **kwargs):
            sizes.append(K.shape[0])
            return original(K, *args, **kwargs)

        monkeypatch.setattr(gp, "_factor", counting)
        # a 65-point table and budget 30, so no run's own fit reaches its size
        code = run_cli("compare", "--objective", "gp-sample", "--strategies",
                       "bnb,ucb", "--seeds", "0..2", "--budget", "30",
                       "--max-level", "6", "--out", str(tmp_path / "c"))
        assert code == 0
        assert sizes.count(65) == 1

    def test_level_zero_table_is_usage_error(self, tmp_path, capsys):
        # at --dim 10 only the level-0 lattice (2^10 points) fits the cap;
        # the message names level 1's 3^10 points and the cap
        code = run_cli("compare", "--objective", "gp-sample", "--dim", "10",
                       "--seeds", "1", "--out", str(tmp_path / "c"))
        assert code == 2
        err = capsys.readouterr().err
        assert "table level" in err
        assert "got 0" in err
        assert "59049 points" in err and "20000-point" in err

    def test_zero_seed_count_is_usage_error(self, tmp_path, capsys):
        code = run_cli("compare", "--seeds", "0", "--out", str(tmp_path / "c"))
        assert code == 2
        assert "seed count must be positive" in capsys.readouterr().err

    def test_unknown_strategy_is_usage_error(self, tmp_path):
        assert run_cli("compare", "--strategies", "sgd",
                       "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("strategies", [",", "", "bnb,bnb", "ucb, bnb,ucb"])
    def test_empty_or_repeated_strategies_are_usage_errors(
            self, tmp_path, monkeypatch, capsys, strategies):
        # rejected before the table prior or any objective is built
        def refuse(*args, **kwargs):
            raise AssertionError("objective built")

        monkeypatch.setattr(bench, "table_prior", refuse)
        monkeypatch.setattr(bench, "gp_sample_objective", refuse)
        out = tmp_path / "none"
        code = run_cli("compare", "--objective", "gp-sample", "--strategies",
                       strategies, "--seeds", "0..1", "--out", str(out))
        assert code == 2
        assert "strategy" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_oversized_lattice_is_runtime_failure(self, tmp_path, capsys):
        # 2^16 level-0 points exceed the enumeration cap: not a usage error
        code = run_cli("run", "--objective", "gp-sample", "--dim", "16",
                       "--max-level", "1", "--out", str(tmp_path))
        assert code == 1
        assert "GridTooLargeError" in capsys.readouterr().err

    def test_mid_run_duplicate_is_runtime_failure(self, tmp_path, monkeypatch,
                                                  capsys):
        def duplicate(self, points, values):
            raise DuplicateObservationError("point already observed")

        monkeypatch.setattr(gp.GPPosterior, "extend", duplicate)
        code = run_cli("run", "--objective", "quadratic", "--budget", "20",
                       "--out", str(tmp_path))
        assert code == 1
        assert "DuplicateObservationError" in capsys.readouterr().err


class TestVerify:
    def test_variance_passes_for_finite_smoothness_kernel(self, tmp_path):
        out = tmp_path / "v"
        code = run_cli("verify", "variance", "--levels", "1..5",
                       "--kernel", "matern52", "--lengthscale", "0.3",
                       "--out", str(out))
        assert code == 0
        rows = read_csv(out / "variance" / "variance.csv")
        assert len(rows) == 5
        sups = [float(r["sup_sigma"]) for r in rows]
        assert all(b < a for a, b in zip(sups, sups[1:]))

    def test_variance_passes_with_defaults(self, tmp_path):
        # SE, lengthscale 0.3, levels 1..5: the deviation decays faster than
        # quadratically and stays under Q*delta^2/4, which the lemma allows
        out = tmp_path / "v"
        assert run_cli("verify", "variance", "--out", str(out)) == 0
        rows = read_csv(out / "variance" / "variance.csv")
        assert [int(r["level"]) for r in rows] == [1, 2, 3, 4, 5]

    def test_variance_judges_only_levels_above_the_jitter_floor(self, tmp_path,
                                                                capsys):
        # SE levels 4..10 sit at the sqrt(jitter) floor, where sup sigma stops
        # falling; they are reported but judged neither for slope nor bound
        out = tmp_path / "v"
        code = run_cli("verify", "variance", "--levels", "1..10",
                       "--out", str(out))
        assert code == 0
        printed = capsys.readouterr().out
        assert "levels=[1, 2, 3] at_jitter_floor=[4, 5, 6, 7, 8, 9, 10]" in printed
        rows = read_csv(out / "variance" / "variance.csv")
        assert [int(r["level"]) for r in rows] == list(range(1, 11))

    def test_output_scale_flag_scales_the_deviation(self, tmp_path):
        # sigma scales with sqrt(output_scale), and scaling every Gram entry
        # and the jitter by 4 is exact, so the deviations double bitwise
        sigmas = []
        for scale in ([], ["--output-scale", "4"]):
            out = tmp_path / f"v{len(scale)}"
            code = run_cli("verify", "variance", "--levels", "1..3", *scale,
                           "--out", str(out))
            assert code == 0
            rows = read_csv(out / "variance" / "variance.csv")
            sigmas.append(np.array([float(r["sup_sigma"]) for r in rows]))
        assert np.array_equal(sigmas[1], 2.0 * sigmas[0])

    def test_variance_fails_outside_scaling_regime(self, tmp_path):
        # a lengthscale far below the coarse spacings leaves the deviations
        # flat across these levels, so the slope check must fail
        code = run_cli("verify", "variance", "--levels", "1..3",
                       "--lengthscale", "0.05", "--out", str(tmp_path / "v"))
        assert code == 3

    def test_variance_probe_lattice_over_the_cap_fails_before_fitting(
            self, tmp_path, monkeypatch, capsys):
        # level 13's probes lie on the 2^15 + 1 point level-15 lattice
        def refuse(*args, **kwargs):
            raise AssertionError("fit before the size check")

        monkeypatch.setattr(gp, "fit", refuse)
        code = run_cli("verify", "variance", "--levels", "1..13",
                       "--out", str(tmp_path / "v"))
        assert code == 1
        err = capsys.readouterr().err
        assert "GridTooLargeError" in err
        assert "32769 probe points" in err and "20000-point" in err

    def test_variance_bad_level_lists_are_usage_errors(self, tmp_path, capsys):
        # a repeated level and an empty range are bad input, not a failed check
        for levels, message in (("1,1,2", "strictly ascending, got [1, 1, 2]"),
                                ("3..1", "empty level range '3..1'")):
            code = run_cli("verify", "variance", "--levels", levels,
                           "--out", str(tmp_path / "v"))
            assert code == 2, levels
            assert message in capsys.readouterr().err

    def test_envelope_verification_passes(self, tmp_path):
        # a count N audits seeds 0..N-1, a range A..B audits seeds A..B
        for seeds, expected in (("100", range(100)), ("5..104", range(5, 105))):
            out = tmp_path / seeds
            code = run_cli("verify", "envelope", "--alpha", "0.1", "--seeds", seeds,
                           "--budget", "200", "--max-level", "8", "--out", str(out))
            assert code == 0, seeds
            rows = read_csv(out / "envelope" / "envelope.csv")
            assert [int(r["seed"]) for r in rows] == list(expected)

    def test_envelope_level_zero_table_is_usage_error(self, tmp_path, capsys):
        code = run_cli("verify", "envelope", "--dim", "10",
                       "--out", str(tmp_path / "e"))
        assert code == 2
        err = capsys.readouterr().err
        assert "table level" in err and "got 0" in err
        assert "59049 points" in err and "20000-point" in err

    def test_unknown_target_is_usage_error(self, tmp_path):
        assert run_cli("verify", "entropy", "--out", str(tmp_path)) == 2


def test_outputs_stay_inside_output_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "only-here"
    assert run_cli("run", "--objective", "quadratic", "--budget", "20",
                   "--out", str(out)) == 0
    produced = {p.relative_to(tmp_path).parts[0] for p in tmp_path.rglob("*")}
    assert produced == {"only-here"}
