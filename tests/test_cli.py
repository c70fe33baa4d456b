"""End-to-end tests for the command-line interface."""

import argparse
import hashlib
import io
import itertools
import math
import multiprocessing
import os
import pkgutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deadtime import analytic_ppd, cli, mc_sim
from deadtime.core import (
    GammaDeadTime,
    NumericalError,
    Spectrum,
    Step,
    TabulatedDeadTime,
    Trace,
    read_law_csv,
    write_law_csv,
)
from deadtime.mc_sim import SimConfig, simulate_rejection
from deadtime.spectral import MAX_TRUNCATION


def run(argv):
    return cli.main([str(a) for a in argv])


def _failing_trial(sig, law, cfg):
    raise NumericalError(f"trial with seed {cfg.seed} failed")


class TestStep:
    def test_analytic_trace_values(self, tmp_path):
        out = tmp_path / "step.csv"
        code = run(
            ["step", "--d", 0.05, "--nu0", 5, "--nu1", 10,
             "--t-max", 0.5, "--dt", 0.001, "--out", out]
        )
        assert code == 0
        trace = Trace.from_csv(out)
        lam0 = 1.0 / (1.0 / 5.0 - 0.05)
        lam1 = 1.0 / (1.0 / 10.0 - 0.05)
        a0 = 1.0 / (1.0 + lam0 * 0.05)
        assert abs(trace.rate[0] - lam1 * a0) < 1e-12
        assert abs(trace.active[0] - a0) < 1e-12
        # settles into the new equilibrium
        assert abs(trace.active[-1] - 1.0 / (1.0 + lam1 * 0.05)) < 1e-6

    def test_ringing_kinks_at_dead_time_multiples(self, tmp_path):
        out = tmp_path / "step.csv"
        run(["step", "--d", 0.05, "--nu0", 5, "--nu1", 10,
             "--t-max", 0.3, "--dt", 0.0005, "--out", out])
        trace = Trace.from_csv(out)
        t = trace.grid.times()
        curvature = np.abs(np.diff(trace.rate, 2))
        # derivative kinks sit at multiples of the dead time
        for target in (0.05, 0.10):
            window = (t[1:-1] > target - 0.02) & (t[1:-1] < target + 0.02)
            spike = t[1:-1][window][np.argmax(curvature[window])]
            assert abs(spike - target) < 0.0011

    def test_zero_dead_time_is_flat(self, tmp_path):
        out = tmp_path / "flat.csv"
        assert run(["step", "--d", 0, "--nu0", 5, "--nu1", 10,
                    "--t-max", 0.2, "--dt", 0.01, "--out", out]) == 0
        trace = Trace.from_csv(out)
        assert np.max(np.abs(trace.rate - 10.0)) < 1e-12
        assert np.max(np.abs(trace.active - 1.0)) < 1e-15

    def test_mc_columns_and_determinism(self, tmp_path):
        args = ["step", "--d", 0.02, "--nu0", 5, "--nu1", 10,
                "--t-max", 0.2, "--dt", 0.005, "--mc", 20000, "--seed", 42]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", out1]) == 0
        assert run(args + ["--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        data = np.loadtxt(out1, delimiter=",", skiprows=1)
        assert data.shape[1] == 8
        with open(out1) as fh:
            assert fh.readline().strip() == cli.COMBINED_CSV.header
        # MC close to analytic: pooled z within a generous band
        ref, nu_hat, nu_se = data[:, 2], data[:, 3], data[:, 4]
        z = (nu_hat - ref) / nu_se
        assert np.mean(np.abs(z) < 4.0) > 0.9

    def test_missing_targets_is_usage_error(self, tmp_path):
        assert run(["step", "--d", 0.05, "--t-max", 0.1, "--dt", 0.01,
                    "--out", tmp_path / "x.csv"]) == 2

    def test_unreachable_target_rate(self, tmp_path):
        # 30 Hz output impossible with 50 ms dead time
        assert run(["step", "--d", 0.05, "--nu0", 30, "--nu1", 10,
                    "--t-max", 0.1, "--dt", 0.01,
                    "--out", tmp_path / "x.csv"]) == 2


class TestPeriodic:
    def test_frequency_doubling_near_half_resonance(self, tmp_path):
        prefix = tmp_path / "per"
        code = run(["periodic", "--d", 0.08, "--nu0", 10, "--mod-depth", 0.9,
                    "--f", 6.25, "--harmonics", 8, "--out-prefix", prefix])
        assert code == 0
        sweep = np.loadtxt(f"{prefix}-sweep.csv", delimiter=",", skiprows=1)
        mags = {int(k): a for _, k, a, _ in sweep}
        assert mags[2] > mags[1]

    def test_resonant_frequency_transmits_undistorted(self, tmp_path):
        prefix = tmp_path / "res"
        run(["periodic", "--d", 0.08, "--nu0", 10, "--mod-depth", 0.9,
             "--f", 12.5, "--harmonics", 8, "--out-prefix", prefix])
        trace = Trace.from_csv(f"{prefix}-trace-f12.5.csv")
        assert np.max(trace.active) - np.min(trace.active) < 1e-8
        beta = Spectrum.from_csv(
            f"{prefix}-beta-f12.5.csv", omega=2 * math.pi * 12.5
        )
        lam0 = 1.0 / (1.0 / 10.0 - 0.08)
        alpha0 = 1.0 / (1.0 + lam0 * 0.08)
        assert abs(beta.coefficient(1) - 0.45 * lam0 * alpha0) < 1e-8

    def test_sweep_deterministic_across_threads(self, tmp_path):
        ref = GammaDeadTime(3, 50.0)
        x = np.linspace(0.0, ref.quantile(1 - 1e-13), 2001)
        pdf = ref.density(x)
        table = tmp_path / "law.csv"
        write_law_csv(TabulatedDeadTime(x, pdf / np.trapezoid(pdf, x)), table)
        for name, law in (("fixed", ["--d", 0.08]), ("table", ["--law", f"table:{table}"])):
            base = ["periodic", *law, "--nu0", 10, "--mod-depth", 0.9,
                    "--f-sweep", "2:14:7", "--harmonics", 8]
            p1, p2 = tmp_path / f"{name}1", tmp_path / f"{name}4"
            assert run(base + ["--out-prefix", p1, "--threads", 1]) == 0
            assert run(base + ["--out-prefix", p2, "--threads", 4]) == 0
            left = sorted(tmp_path.glob(f"{name}1-*.csv"))
            assert len(left) == 15
            for path in left:
                twin = tmp_path / path.name.replace(f"{name}1-", f"{name}4-", 1)
                assert path.read_bytes() == twin.read_bytes()

    def test_colliding_file_tags_rejected_before_writing(self, tmp_path, capsys):
        prefix = tmp_path / "fine"
        code = run(["periodic", "--d", 0.08, "--nu0", 10,
                    "--f-sweep", "1000:1000.001:3", "--out-prefix", prefix])
        assert code == 2
        err = capsys.readouterr().err
        assert "1000.0" in err and "1000.0005" in err and "1000.001" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sweep", ["1:2", "1:2:3:4", "1:2:x"])
    def test_malformed_sweep_names_the_flag(self, tmp_path, capsys, sweep):
        code = run(["periodic", "--d", 0.08, "--nu0", 10, "--f-sweep", sweep,
                    "--out-prefix", tmp_path / "s"])
        assert code == 2
        assert "--f-sweep must be lo:hi:steps" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_one_sample_writes_both_ends_of_the_period(self, tmp_path):
        prefix = tmp_path / "one"
        assert run(["periodic", "--d", 0.08, "--nu0", 10, "--mod-depth", 0.9,
                    "--f", 4, "--harmonics", 8, "--samples", 1,
                    "--out-prefix", prefix]) == 0
        trace = Trace.from_csv(f"{prefix}-trace-f4.csv")
        assert trace.grid.times().tolist() == [0.0, 0.25]
        assert trace.active[0] == trace.active[1]
        assert trace.rate[0] == trace.rate[1]

    def test_zero_samples_rejected_before_solving(self, tmp_path, capsys, monkeypatch):
        def solve(*args):
            raise AssertionError("solved before checking --samples")

        monkeypatch.setattr(cli, "_solve_one_frequency", solve)
        code = run(["periodic", "--d", 0.08, "--nu0", 10, "--f", 4, "--samples", 0,
                    "--out-prefix", tmp_path / "z"])
        assert code == 2
        assert "--samples" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, env, name", [
        (0, None, "--threads"),
        (-3, None, "--threads"),
        (None, "-2", "DEADTIME_THREADS"),
        (None, "abc", "DEADTIME_THREADS"),
    ], ids=["flag-zero", "flag-negative", "env-negative", "env-not-integer"])
    def test_bad_thread_count_rejected_before_solving(
        self, tmp_path, capsys, monkeypatch, flag, env, name
    ):
        def solve(*args):
            raise AssertionError("solved before checking the thread count")

        monkeypatch.setattr(cli, "_solve_one_frequency", solve)
        monkeypatch.delenv("DEADTIME_THREADS", raising=False)
        if env is not None:
            monkeypatch.setenv("DEADTIME_THREADS", env)
        argv = ["periodic", "--d", 0.08, "--nu0", 10, "--f", 4, "--out-prefix", tmp_path / "t"]
        code = run(argv + ([] if flag is None else ["--threads", flag]))
        assert code == 2
        assert name in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_output_directory_rejected_before_solving(
        self, tmp_path, capsys, monkeypatch
    ):
        def solve(*args):
            raise AssertionError("solved before checking the output directory")

        monkeypatch.setattr(cli, "_solve_one_frequency", solve)
        missing = tmp_path / "sweep"
        code = run(["periodic", "--d", 0.08, "--nu0", 10, "--f-sweep", "1:4:4",
                    "--out-prefix", missing / "fig"])
        assert code == 2
        assert str(missing) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_max_rate_column(self, tmp_path):
        prefix = tmp_path / "mx"
        run(["periodic", "--d", 0.08, "--nu0", 10, "--mod-depth", 0.9,
             "--f", 4, "--harmonics", 8, "--max-rate", "--out-prefix", prefix])
        with open(f"{prefix}-sweep.csv") as fh:
            assert fh.readline().strip() == "f,k,abs,phase,max_nu"
        sweep = np.loadtxt(f"{prefix}-sweep.csv", delimiter=",", skiprows=1)
        assert sweep.shape[1] == 5
        trace = Trace.from_csv(f"{prefix}-trace-f4.csv")
        assert abs(sweep[0, 4] - np.max(trace.rate)) < 1e-12

    def test_gamma_law_accepted(self, tmp_path):
        prefix = tmp_path / "gl"
        code = run(["periodic", "--law", "gamma:10,137.5", "--nu0", 5,
                    "--mod-depth", 0.5, "--f", 3, "--harmonics", 8,
                    "--out-prefix", prefix])
        assert code == 0

    def test_requires_frequency(self, tmp_path):
        assert run(["periodic", "--d", 0.08, "--nu0", 10,
                    "--out-prefix", tmp_path / "x"]) == 2


class TestPprdStep:
    def test_analytic_equilibria(self, tmp_path):
        out = tmp_path / "pp.csv"
        code = run(["pprd-step", "--mean", 0.08, "--shape", 10, "--nu0", 5,
                    "--nu1", 10, "--t-max", 1.5, "--dt", 0.005, "--out", out])
        assert code == 0
        trace = Trace.from_csv(out)
        lam0, lam1 = 1.0 / (0.2 - 0.08), 1.0 / (0.1 - 0.08)
        assert abs(trace.rate[0] - lam1 / (1.0 + lam0 * 0.08)) < 1e-9
        assert abs(trace.rate[-1] - 10.0) < 1e-6

    def test_trials_envelope_and_schema(self, tmp_path):
        out = tmp_path / "ppmc.csv"
        code = run(["pprd-step", "--mean", 0.08, "--shape", 10, "--nu0", 5,
                    "--nu1", 10, "--t-max", 0.4, "--dt", 0.02, "--trials", 9,
                    "--mc", 3000, "--seed", 3, "--out", out])
        assert code == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        nu_ref, nu_hat, nu_se = data[:, 2], data[:, 3], data[:, 4]
        z = np.abs(nu_hat - nu_ref) / nu_se
        # SE from 9 trials is noisy; ask only that most bins look sane
        assert np.mean(z < 5.0) > 0.85
        assert run(["validate", out]) == 0

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        args = ["pprd-step", "--mean", 0.08, "--shape", 10, "--nu0", 5,
                "--nu1", 10, "--t-max", 0.2, "--dt", 0.02, "--trials", 3,
                "--mc", 2000, "--seed", 5]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("DEADTIME_THREADS", "1")
        assert run(args + ["--out", out1]) == 0
        monkeypatch.setenv("DEADTIME_THREADS", "6")
        assert run(args + ["--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        argv = [*_PPRD_TRIALS, "--t-max", 0.1, "--mc", 600]
        for threads in (1, 2, 3):
            assert run([*argv, "--threads", threads, "--out", tmp_path / f"t{threads}.csv"]) == 0
        monkeypatch.setenv("DEADTIME_THREADS", "2")
        assert run([*argv, "--out", tmp_path / "env.csv"]) == 0
        want = (tmp_path / "t1.csv").read_bytes()
        for name in ("t2.csv", "t3.csv", "env.csv"):
            assert (tmp_path / name).read_bytes() == want
        assert multiprocessing.active_children() == []

    def test_failing_trial_leaves_no_worker_behind(self, tmp_path, capsys, monkeypatch):
        # a module-level stub: the pool pickles the trial call by reference
        monkeypatch.setattr(mc_sim, "simulate_rejection", _failing_trial)
        for threads in (1, 2):
            out = tmp_path / f"t{threads}.csv"
            assert run([*_PPRD_TRIALS, "--threads", threads, "--out", out]) == 4
            assert "trial with seed 5 failed" in capsys.readouterr().err
            assert multiprocessing.active_children() == []
            assert not out.exists()

    def test_trials_without_components_rejected(self, tmp_path):
        assert run(["pprd-step", "--mean", 0.08, "--shape", 10, "--nu0", 5,
                    "--nu1", 10, "--trials", 3, "--out", tmp_path / "x.csv"]) == 2

    def test_negative_trials_rejected(self, tmp_path, capsys):
        assert run(["pprd-step", "--mean", 0.08, "--shape", 10, "--nu0", 5,
                    "--nu1", 10, "--trials", -1, "--mc", 100,
                    "--out", tmp_path / "x.csv"]) == 2
        assert "--trials" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_single_trial_has_no_standard_error(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run(["pprd-step", "--mean", 0.08, "--shape", 10, "--nu0", 5,
                    "--nu1", 10, "--t-max", 0.1, "--dt", 0.02, "--trials", 1,
                    "--mc", 500, "--seed", 2, "--out", out]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.all(np.isnan(data[:, [4, 6]]))
        assert np.all(np.isfinite(np.delete(data, [4, 6], axis=1)))
        assert run(["validate", out]) == 0


class TestHazardCmd:
    def test_fixed_law_threshold(self, tmp_path):
        out = tmp_path / "hz.csv"
        run(["hazard", "--law", "fixed:0.05", "--lambda0", 10,
             "--tau-max", 0.1, "--points", 101, "--out", out])
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        tau, h = data[:, 0], data[:, 1]
        assert np.all(h[tau < 0.05] == 0.0)
        assert np.all(h[tau >= 0.05] == 1.0)

    def test_sharper_rise_for_narrower_law(self, tmp_path):
        readings = {}
        for n in (10, 50):
            out = tmp_path / f"hz{n}.csv"
            beta = (n + 1) / 0.08
            run(["hazard", "--law", f"gamma:{n},{beta}", "--lambda0", 8.333,
                 "--tau-max", 0.16, "--points", 161, "--out", out])
            data = np.loadtxt(out, delimiter=",", skiprows=1)
            readings[n] = data
        tau = readings[10][:, 0]
        below = np.searchsorted(tau, 0.06)
        above = np.searchsorted(tau, 0.1)
        assert readings[50][below, 1] < readings[10][below, 1]
        assert readings[50][above, 1] > readings[10][above, 1]

    def test_hazard_saturates(self, tmp_path):
        out = tmp_path / "sat.csv"
        run(["hazard", "--law", "gamma:10,137.5", "--lambda0", 8.333,
             "--tau-max", 0.4, "--points", 801, "--out", out])
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        # ten standard deviations past the mean the memory is gone
        sigma = math.sqrt(11.0) / 137.5
        far = data[:, 0] > 0.08 + 10.0 * sigma
        assert np.all(np.abs(data[far, 1] - 1.0) < 1e-6)


    def test_above_the_gamma_rate_the_hazard_tends_to_the_rate(self, capsys):
        # 50-digit mpmath hazards (Hz) over lambda0: above its rate the gamma
        # law's own tail is the slower one, so h tends to 137.5/900
        assert run(["hazard", "--law", "gamma:10,137.5", "--lambda0", 900, "--tau-max", 5,
                    "--points", 6, "--out", "-"]) == 0
        rows = np.loadtxt(io.StringIO(capsys.readouterr().out), delimiter=",", skiprows=1)
        want = np.array([127.564365654717, 132.515485069975, 135.502421283412]) / 900.0
        np.testing.assert_allclose(rows[[1, 2, 5], 1], want, rtol=1e-12, atol=0.0)

    def test_at_an_extreme_rate_the_hazard_is_the_laws_own(self, capsys):
        # every recovery lies in the last instant, so the hazard is rho/S;
        # exp(c x - s) keeps c x - s exact at 1e300
        assert run(["hazard", "--law", "gamma:10,137.5", "--lambda0", 1e300, "--tau-max", 1,
                    "--points", 3, "--out", "-"]) == 0
        rows = np.loadtxt(io.StringIO(capsys.readouterr().out), delimiter=",", skiprows=1)
        law = GammaDeadTime(10, 137.5)
        tau = rows[1:, 0]
        want = law.density(tau) / law.survivor(tau) / 1e300
        np.testing.assert_allclose(rows[1:, 1], want, rtol=1e-12, atol=0.0)


class TestRepresentCmd:
    def test_gamma_law_csv_pointwise(self, tmp_path):
        out = tmp_path / "g3.csv"
        assert run(["represent", "--process", "gamma:3,25", "--out", out]) == 0
        law = read_law_csv(out)
        expected = GammaDeadTime(2, 25.0)
        np.testing.assert_allclose(
            law.pdf, expected.density(law.x), atol=1e-10
        )

    def test_stdout_matches_file(self, tmp_path, capsys):
        out = tmp_path / "g3.csv"
        assert run(["represent", "--process", "gamma:3,25", "--out", out]) == 0
        capsys.readouterr()
        assert run(["represent", "--process", "gamma:3,25", "--out", "-"]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_lognormal_report(self, tmp_path, capsys):
        out = tmp_path / "ln.csv"
        assert run(["represent", "--process", "lognormal:0,0.5,0.1",
                    "--out", out]) == 0
        err = capsys.readouterr().err
        fields = dict(
            line.split(" = ") for line in err.strip().splitlines() if " = " in line
        )
        bound = math.exp(-1.0 + 0.25) / (0.1 * 0.25)
        assert abs(float(fields["minimal_rate"]) - bound) / bound < 1e-6
        assert fields["admissible"] == "True"
        assert float(fields["convolution_residual"]) < 1e-6

    def test_below_bound_exits_three(self, tmp_path, capsys):
        bound = math.exp(-1.0 + 0.25) / (0.1 * 0.25)
        code = run(["represent", "--process", "lognormal:0,0.5,0.1",
                    "--lambda", 0.9 * bound, "--out", tmp_path / "x.csv"])
        assert code == 3
        assert "x =" in capsys.readouterr().err

    def test_gamma_rate_too_small_exits_three(self, tmp_path):
        assert run(["represent", "--process", "gamma:3,25", "--lambda", 12,
                    "--out", tmp_path / "x.csv"]) == 3

    @pytest.mark.parametrize("process", ["gamma:3", "lognormal:0,0.8", "gamma:x,2",
                                         "gamma:3,25,1", "table"])
    def test_malformed_process_names_the_form(self, tmp_path, capsys, process):
        assert run(["represent", "--process", process, "--out", tmp_path / "x.csv"]) == 2
        err = capsys.readouterr().err
        assert repr(process) in err
        assert "gamma:r,beta | lognormal:mu,sigma,delta | table:FILE" in err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_process_kind(self, tmp_path):
        assert run(["represent", "--process", "weird:1,2",
                    "--out", tmp_path / "x.csv"]) == 2

    def test_gamma_law_file_reads_back(self, tmp_path):
        law = tmp_path / "law.csv"
        assert run(["represent", "--process", "gamma:2,30", "--out", law]) == 0
        assert run(["validate", law]) == 0
        assert run(["periodic", "--law", f"table:{law}", "--nu0", 5, "--f", 5,
                    "--out-prefix", tmp_path / "p"]) == 0

    def test_table_process(self, tmp_path):
        ref = GammaDeadTime(3, 25.0)
        x = np.linspace(0.0, ref.quantile(1 - 1e-12), 20001)
        table = tmp_path / "interval.csv"
        np.savetxt(table, np.column_stack([x, ref.density(x)]), delimiter=",")
        out = tmp_path / "law.csv"
        assert run(["represent", "--process", f"table:{table}",
                    "--lambda", 25, "--out", out]) == 0
        law = read_law_csv(out)
        probe = np.linspace(0.05, 0.3, 20)
        np.testing.assert_allclose(
            law.density(probe), GammaDeadTime(2, 25.0).density(probe),
            rtol=0.02, atol=0.05,
        )

    @staticmethod
    def _gamma_interval_table(tmp_path, x_end, nodes):
        x = np.linspace(0.0, x_end, nodes)
        table = tmp_path / "interval.csv"
        np.savetxt(table, np.column_stack([x, GammaDeadTime(3, 40.0).density(x)]),
                   delimiter=",")
        return table

    def test_table_default_rate_is_minimal(self, tmp_path, capsys):
        table = self._gamma_interval_table(tmp_path, 1.2, 801)
        assert run(["represent", "--process", f"table:{table}",
                    "--out", tmp_path / "law.csv"]) == 0
        err = capsys.readouterr().err
        fields = dict(
            line.split(" = ") for line in err.strip().splitlines() if " = " in line
        )
        assert fields["admissible"] == "True"
        assert fields["input_rate"] == fields["minimal_rate"]
        # the exact bound on [0, 1.2] is 40 - 3/1.2 = 37.5 Hz
        assert 37.5 <= float(fields["minimal_rate"]) <= 39.4

    @pytest.mark.parametrize("x_end", [0.4, 0.6])
    def test_truncated_table_exits_three(self, tmp_path, capsys, x_end):
        table = self._gamma_interval_table(tmp_path, x_end, 801)
        assert run(["represent", "--process", f"table:{table}",
                    "--out", tmp_path / "law.csv"]) == 3
        assert "x =" in capsys.readouterr().err

    def test_decayed_table_law_validates(self, tmp_path):
        table = self._gamma_interval_table(tmp_path, 0.8, 1601)
        law = tmp_path / "law.csv"
        assert run(["represent", "--process", f"table:{table}", "--out", law]) == 0
        assert run(["validate", law]) == 0

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_table_row_exits_two(self, tmp_path, capsys, bad):
        table = self._gamma_interval_table(tmp_path, 0.8, 1601)
        rows = table.read_text().splitlines()
        rows[400] = rows[400].split(",")[0] + "," + bad
        table.write_text("\n".join(rows) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["represent", "--process", f"table:{table}",
                        "--out", tmp_path / "law.csv"])
        assert code == 2
        assert "density" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "law.csv").exists()


class TestInferInput:
    def test_round_trip_from_periodic(self, tmp_path):
        prefix = tmp_path / "per"
        run(["periodic", "--d", 0.08, "--nu0", 10, "--mod-depth", 0.9,
             "--f", 6.25, "--harmonics", 8, "--out-prefix", prefix])
        out = tmp_path / "lam.csv"
        code = run(["infer-input", "--beta-csv", f"{prefix}-beta-f6.25.csv",
                    "--d", 0.08, "--f", 6.25, "--out", out])
        assert code == 0
        lam = Spectrum.from_csv(out, omega=2 * math.pi * 6.25)
        lam0 = 1.0 / (1.0 / 10.0 - 0.08)
        assert abs(lam.coefficient(0) - lam0) < 1e-8
        assert abs(lam.coefficient(1) - 0.45 * lam0) < 1e-8
        for k in range(2, lam.order + 1):
            assert abs(lam.coefficient(k)) < 1e-8

    def test_constant_rate_scalar_inversion(self, tmp_path):
        beta_csv = tmp_path / "beta.csv"
        beta_csv.write_text("0,5,0\n")
        out = tmp_path / "lam.csv"
        assert run(["infer-input", "--beta-csv", beta_csv, "--d", 0.05,
                    "--f", 1, "--out", out]) == 0
        lam = Spectrum.from_csv(out, omega=2 * math.pi)
        assert abs(lam.coefficient(0) - 5.0 / (1.0 - 0.05 * 5.0)) < 1e-12

    def test_singular_system_exits_four(self, tmp_path):
        beta_csv = tmp_path / "beta.csv"
        # output rate exactly at the saturation ceiling 1/d
        beta_csv.write_text("0,12.5,0\n")
        assert run(["infer-input", "--beta-csv", beta_csv, "--d", 0.08,
                    "--f", 1, "--out", tmp_path / "x.csv"]) == 4


class TestValidateCmd:
    def test_accepts_all_produced_schemas(self, tmp_path):
        produced = []
        out = tmp_path / "tr.csv"
        run(["step", "--d", 0.05, "--nu0", 5, "--nu1", 10, "--t-max", 0.1,
             "--dt", 0.01, "--out", out])
        produced.append(out)
        out = tmp_path / "mc.csv"
        run(["step", "--d", 0.05, "--nu0", 5, "--nu1", 10, "--t-max", 0.1,
             "--dt", 0.01, "--mc", 2000, "--seed", 1, "--out", out])
        produced.append(out)
        prefix = tmp_path / "p"
        run(["periodic", "--d", 0.08, "--nu0", 10, "--mod-depth", 0.9,
             "--f", 4, "--harmonics", 8, "--out-prefix", prefix])
        produced += [f"{prefix}-trace-f4.csv", f"{prefix}-beta-f4.csv",
                     f"{prefix}-sweep.csv"]
        out = tmp_path / "hz.csv"
        run(["hazard", "--law", "fixed:0.05", "--lambda0", 10, "--tau-max",
             0.1, "--out", out])
        produced.append(out)
        out = tmp_path / "law.csv"
        run(["represent", "--process", "gamma:3,25", "--out", out])
        produced.append(out)
        assert run(["validate"] + produced) == 0

    def test_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("colour,taste\nred,sweet\n")
        assert run(["validate", bad]) == 2

    def test_rejects_broken_trace(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,A,nu\n0,0.5,10\n0.1,1.7,10\n")
        assert run(["validate", bad]) == 2

    def test_rejects_spectrum_index_beyond_rows(self, tmp_path):
        bad = tmp_path / "beta.csv"
        bad.write_text("0,1,0\n100000000000,0.5,0\n")
        assert run(["validate", bad]) == 2

    def test_headerless_interval_table_names_the_spectrum_columns(self, tmp_path, capsys):
        # the x,density table that represent --process table: reads has no header
        ref = GammaDeadTime(3, 25.0)
        x = np.linspace(0.0, ref.quantile(1 - 1e-12), 201)
        table = tmp_path / "interval.csv"
        np.savetxt(table, np.column_stack([x, ref.density(x)]), delimiter=",")
        assert run(["validate", table]) == 2
        err = capsys.readouterr().err
        assert "spectrum" in err and "k,re,im" in err and "found 2" in err
        assert "usecols" not in err

    @pytest.mark.parametrize("row", ["0.1,0.5", "0.1,0.5,10,4"], ids=["short", "long"])
    def test_later_row_of_the_wrong_length_names_the_columns(self, tmp_path, capsys, row):
        bad = tmp_path / "trace.csv"
        bad.write_text(f"t,A,nu\n0,0.5,10\n{row}\n")
        assert run(["validate", bad]) == 2
        err = capsys.readouterr().err
        assert "t,A,nu" in err and "on line 3" in err and "usecols" not in err

    def test_rejects_unevenly_spaced_estimate(self, tmp_path):
        bad = tmp_path / "est.csv"
        bad.write_text(
            "t,nu_hat,nu_se,A_hat,A_se,count\n"
            "0,1,0.1,0.5,0.01,3\n0.001,1,0.1,0.5,0.01,3\n0.005,1,0.1,0.5,0.01,3\n"
        )
        assert run(["validate", bad]) == 2

    def test_bad_file_among_good_ones_is_named(self, tmp_path, capsys):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("t,A,nu\n0,0.5,10\n0.1,0.5,10\n")
        bad.write_text("t,A,nu\n0,0.5,10\n0.1,1.7,10\n")
        assert run(["validate", good, bad, good]) == 2
        out, err = capsys.readouterr()
        assert out == f"ok {good} (trace)\n"
        assert f"error: {bad}: " in err


@pytest.mark.parametrize("argv", [
    ["step", "--d", 0.05, "--nu0", 5, "--nu1", 10],
    ["hazard", "--law", "fixed:0.05", "--lambda0", 10, "--tau-max", 0.2],
    ["represent", "--process", "gamma:2,30"],
    ["infer-input", "--beta-csv", "BETA", "--d", 0.05, "--f", 1],
], ids=lambda argv: argv[0])
def test_threads_only_where_work_fans_out(tmp_path, argv):
    # each command runs with these flags; only --threads makes it a usage error
    beta_csv = tmp_path / "beta.csv"
    beta_csv.write_text("0,5,0\n")
    argv = [beta_csv if a == "BETA" else a for a in argv] + ["--out", tmp_path / "x.csv"]
    assert run(argv) == 0
    (tmp_path / "x.csv").unlink()
    with pytest.raises(SystemExit) as exit_:
        run([*argv, "--threads", 2])
    assert exit_.value.code == 2
    assert not (tmp_path / "x.csv").exists()


_STEP = ["--d", 0.05, "--nu0", 5, "--nu1", 10, "--t-max", 0.05, "--dt", 0.01]
_PPRD = ["--mean", 0.08, "--shape", 4, "--nu0", 5, "--nu1", 10, "--t-max", 0.05,
         "--dt", 0.01]
_PERIODIC = ["--d", 0.08, "--nu0", 10, "--f", 4, "--harmonics", 4, "--samples", 4]
_VALID = {
    "step": ["step", *_STEP, "--out", "OUT/x.csv"],
    "pprd-step": ["pprd-step", *_PPRD, "--out", "OUT/x.csv"],
    "periodic": ["periodic", *_PERIODIC, "--out-prefix", "OUT/p"],
    "hazard": ["hazard", "--law", "fixed:0.05", "--lambda0", 10, "--tau-max", 0.1,
               "--points", 11, "--out", "OUT/x.csv"],
    "represent": ["represent", "--process", "gamma:2,30", "--out", "OUT/x.csv"],
    "infer-input": ["infer-input", "--beta-csv", "BETA", "--d", 0.05, "--f", 1,
                    "--out", "OUT/x.csv"],
}
_RATE, _DEAD, _COUNT, _THREADS = ("-1", "0"), ("-0.01",), ("-1",), ("0",)
# off the kind:fields grammar: an unknown kind, too few or too many fields, a
# non-integer order, an empty field, and fields that are not finite
_LAW = ("weird:1", "fixed", "fixed:", "gamma:3", "fixed:1,2", "gamma:3,25,1", "gamma:3.5,25",
        "gamma:,25", "table:", "fixed:nan", "gamma:3,inf", "fixed:-inf")
_DOMAINS = {
    "step": {"--d": _DEAD, "--nu0": _RATE, "--nu1": _RATE, "--lambda0": _RATE,
             "--lambda1": _RATE, "--t-max": _RATE, "--dt": _RATE, "--mc": _COUNT,
             "--seed": ("1.5",), "--bin-width": _RATE},
    "pprd-step": {"--mean": _RATE, "--shape": ("0",), "--nu0": _RATE, "--nu1": _RATE,
                  "--lambda0": _RATE, "--lambda1": _RATE, "--t-max": _RATE,
                  "--dt": _RATE, "--trials": _COUNT, "--mc": _COUNT, "--seed": ("1.5",),
                  "--bin-width": _RATE, "--threads": _THREADS},
    "periodic": {"--d": _DEAD, "--law": _LAW, "--nu0": _RATE, "--lambda0": _RATE,
                 "--mod-depth": ("-0.1", "1.5"), "--f": _RATE,
                 "--harmonics": ("3", str(MAX_TRUNCATION + 1)),
                 "--samples": ("0",), "--threads": _THREADS},
    "hazard": {"--law": _LAW, "--lambda0": _RATE, "--tau-max": _RATE, "--points": ("1",)},
    "represent": {"--lambda": _RATE},
    "infer-input": {"--d": _DEAD, "--law": _LAW, "--f": _RATE},
}
_OUT_OF_DOMAIN = [
    (command, flag, value)
    for command, flags in _DOMAINS.items()
    for flag, bad in flags.items()
    for value in ("nan", "inf", "-inf", *bad)
]


def _valid_argv(tmp_path, command):
    """A working ``command`` line whose files go to ``tmp_path/out``."""
    beta_csv = tmp_path / "beta.csv"
    beta_csv.write_text("0,5,0\n")
    (tmp_path / "out").mkdir()
    return [str(beta_csv) if a == "BETA" else str(a).replace("OUT", str(tmp_path / "out"))
            for a in _VALID[command]]


@pytest.mark.parametrize("command, flag, value", _OUT_OF_DOMAIN,
                         ids=["{}{}={}".format(*case) for case in _OUT_OF_DOMAIN])
def test_out_of_domain_value_names_the_flag(tmp_path, capsys, command, flag, value):
    assert run([*_valid_argv(tmp_path, command), f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert f"{flag} must be" in err and repr(value) in err
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("command", ["periodic", "hazard", "infer-input"])
@pytest.mark.parametrize("law", ["fixed:-1", "gamma:3,-5", "table:MISSING", "table:BAD"])
def test_law_whose_builder_fails_names_the_flag(tmp_path, capsys, command, law):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,density\n0,1\n1,1\n")
    law = law.replace("MISSING", str(tmp_path / "missing.csv")).replace("BAD", str(bad))
    assert run([*_valid_argv(tmp_path, command), "--law", law]) == 2
    err = capsys.readouterr().err
    assert f"error: --law {law!r}: " in err
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("argv, read", [
    (["hazard", "--law", "table:IN", "--lambda0", 10, "--tau-max", 0.1, "--out", "OUT"], "--law"),
    (["periodic", "--law", "table:IN", "--nu0", 5, "--f", 5, "--harmonics", 4,
      "--out-prefix", "PREFIX"], "--law"),
    (["infer-input", "--law", "table:IN", "--beta-csv", "BETA", "--f", 1, "--out", "OUT"],
     "--law"),
    (["infer-input", "--beta-csv", "IN", "--d", 0.05, "--f", 1, "--out", "OUT"], "--beta-csv"),
    (["represent", "--process", "table:IN", "--out", "OUT"], "--process"),
    (["represent", "--process", "table:IN"], "--process"),
], ids=["hazard", "periodic", "infer-input-law", "infer-input-beta", "represent",
        "represent-default-out"])
def test_no_command_writes_over_its_input(tmp_path, monkeypatch, capsys, argv, read):
    # the output is the input under another name: a symlink, an absolute --out-prefix,
    # or represent's default --out law.csv
    monkeypatch.chdir(tmp_path)
    assert run(["represent", "--process", "gamma:2,30", "--out", "law.csv"]) == 0
    x = np.linspace(0.0, 1.2, 801)
    np.savetxt("interval.csv", np.column_stack([x, GammaDeadTime(3, 40.0).density(x)]),
               delimiter=",")
    (tmp_path / "beta.csv").write_text("0,5,0\n")
    source = {"--law": "law.csv", "--process": "interval.csv", "--beta-csv": "beta.csv"}[read]
    if argv[0] == "periodic":  # the input has the name of the sweep file
        os.replace(source, "p-sweep.csv")
        source = "p-sweep.csv"
    if argv[0] == "represent" and "--out" not in argv:  # the default --out law.csv
        os.replace(source, "law.csv")
        source = "law.csv"
    os.symlink(source, "link.csv")
    before = hashlib.sha256((tmp_path / source).read_bytes()).hexdigest()
    names = {"IN": source, "OUT": "link.csv", "PREFIX": str(tmp_path / "p"), "BETA": "beta.csv"}
    argv = [str(a).replace("table:IN", f"table:{source}") for a in argv]
    assert run([names.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert read in err and ("--out-prefix" if argv[0] == "periodic" else "--out") in err
    assert hashlib.sha256((tmp_path / source).read_bytes()).hexdigest() == before


def test_out_dash_is_stdout_even_beside_an_input_named_dash(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-").write_text("0,5,0\n")
    assert run(["infer-input", "--beta-csv", "-", "--d", 0.05, "--f", 1, "--out", "-"]) == 0
    assert capsys.readouterr().out.startswith("0,")
    assert (tmp_path / "-").read_text() == "0,5,0\n"


@pytest.mark.parametrize("command, flag, value", [
    ("step", "--d", 0), ("step", "--mc", 0), ("pprd-step", "--trials", 0),
    ("pprd-step", "--shape", 1), ("periodic", "--mod-depth", 0),
    ("periodic", "--mod-depth", 1), ("periodic", "--samples", 1),
    ("periodic", "--harmonics", 4), ("periodic", "--threads", 1),
    ("hazard", "--points", 2), ("infer-input", "--d", 0),
], ids=lambda v: str(v))
def test_domain_boundaries_are_accepted(tmp_path, command, flag, value):
    assert run([*_valid_argv(tmp_path, command), flag, value]) == 0
    assert list((tmp_path / "out").iterdir())


@pytest.mark.parametrize("command, argv, rates", [
    ("step", _STEP, [("--lambda0", 5, 0.05), ("--lambda1", 10, 0.05)]),
    ("pprd-step", _PPRD, [("--lambda0", 5, 0.08), ("--lambda1", 10, 0.08)]),
    ("periodic", _PERIODIC, [("--lambda0", 10, 0.08)]),
])
def test_input_rate_overrides_match_the_targets(tmp_path, command, argv, rates):
    # the override equal to the rate a target implies writes the same bytes
    overrides = [a for flag, nu, dead in rates for a in (flag, repr(1.0 / (1.0 / nu - dead)))]
    out = {"periodic": "--out-prefix"}.get(command, "--out")
    assert run([command, *argv, out, tmp_path / "target"]) == 0
    assert run([command, *argv, *overrides, out, tmp_path / "override"]) == 0
    targets = sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("target"))
    assert targets
    for name in targets:
        twin = tmp_path / name.replace("target", "override", 1)
        assert (tmp_path / name).read_bytes() == twin.read_bytes()


@pytest.mark.parametrize("flag, argv", [
    ("--tau-max", ["hazard", "--law", "fixed:0.05", "--lambda0", "10", "--tau-max", "nan",
                   "--out", "h.csv"]),
    ("--bin-width", ["step", "--d", "0.05", "--nu0", "5", "--nu1", "10", "--mc", "100",
                     "--bin-width", "0", "--out", "s.csv"]),
    ("--t-max", ["pprd-step", "--mean", "0.08", "--shape", "10", "--nu0", "5", "--nu1", "10",
                 "--t-max", "inf", "--out", "p.csv"]),
], ids=["hazard", "step", "pprd-step"])
def test_entry_point_rejects_without_traceback(tmp_path, flag, argv):
    done = _entry_point(argv, tmp_path)
    assert done.returncode == 2
    assert flag in done.stderr and "Traceback" not in done.stderr
    assert list(tmp_path.iterdir()) == []


_SIZE = "100000000000"


@pytest.mark.parametrize("argv", [
    ["periodic", "--d", "0.08", "--nu0", "10", "--f", "5", "--samples", _SIZE],
    ["periodic", "--d", "0.08", "--nu0", "10", "--f-sweep", f"1:2:{_SIZE}"],
    ["hazard", "--law", "gamma:2,20", "--lambda0", "5", "--tau-max", "1", "--points", _SIZE,
     "--out", "h.csv"],
], ids=["periodic-samples", "periodic-f-sweep", "hazard-points"])
def test_size_past_the_memory_exits_two_without_traceback(tmp_path, argv):
    # each asks for one array of 1e11 floats (745 GiB) before writing anything
    done = _entry_point(argv, tmp_path)
    assert done.returncode == 2
    assert "error: out of memory" in done.stderr and "Traceback" not in done.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, flag", [
    (["step", "--d", 0.05, "--dt", 1e-320], "--dt"),
    (["pprd-step", "--mean", 0.08, "--shape", 10, "--dt", 1e-320], "--dt"),
    (["step", "--d", 0.05, "--mc", 100, "--bin-width", 1e-320], "--bin-width"),
    (["pprd-step", "--mean", 0.08, "--shape", 10, "--trials", 2, "--mc", 100,
      "--t-max", 2.0, "--dt", 1e-8], "--dt"),
], ids=["step", "pprd-step", "step-mc", "pprd-step-trials"])
def test_grid_past_the_step_cap_names_the_flag(tmp_path, capsys, argv, flag):
    # each of these would lay at least 2e8 steps; none is allocated
    assert run([*argv, "--nu0", 5, "--nu1", 10, "--out", tmp_path / "x.csv"]) == 2
    err = capsys.readouterr().err
    assert f"error: {flag}" in err and f"more than {cli._MAX_STEPS} steps" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, rate", [
    (["step", "--d", 0, "--lambda0", 1e300, "--lambda1", 1e300, "--mc", 2], "1e+300"),
    (["pprd-step", "--mean", 0.08, "--shape", 10, "--lambda0", 1e300, "--lambda1", 1e300,
      "--mc", 3, "--trials", 1], "1e+300"),
    (["pprd-step", "--mean", 0.08, "--shape", 10, "--nu0", 5, "--nu1", 12.4999999999,
      "--mc", 3, "--trials", 1], "1562495262873.299"),
], ids=["step", "pprd-step", "pprd-step-nu1"])
def test_monte_carlo_rate_past_the_round_cap_exits_before_sampling(tmp_path, argv, rate):
    # each component would expect rate * 15 ms thinning rounds, far past the cap,
    # and never finish: the timeout fails a run that starts sampling
    argv = [*argv, "--t-max", 0.01, "--dt", 0.005, "--out", "x.csv"]
    done = _entry_point([str(a) for a in argv], tmp_path, timeout=30)
    assert done.returncode == 2 and "Traceback" not in done.stderr
    assert f"error: input rate {rate} Hz needs more than {cli._MAX_STEPS} thinning rounds" \
        in done.stderr
    assert list(tmp_path.iterdir()) == []


def _step_case(tmp_path, capsys):
    """Distances of the active fraction from 1 and of the rate after the
    switch from 10 Hz: the d -> 0 limit is Poisson at the input rate."""
    out = tmp_path / "step.csv"
    assert run(["step", "--d", 1e-7, "--nu0", 5, "--nu1", 10, "--out", out]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    return np.concatenate((data[:, 1] - 1.0, data[data[:, 0] > 0.0, 2] / 10.0 - 1.0))


def _renewal_case(tmp_path, capsys):
    # one lag inside the dead time, where every k-fold term is zero
    lam, d = 10.0, 1e-7
    got = analytic_ppd.renewal_density(analytic_ppd.PpdParams(lam, d), np.array([0.5 * d, 0.5]))
    return np.array([got[0] / lam, got[1] / lam - 1.0])


def _periodic_case(tmp_path, capsys):
    """Relative distances of the output harmonics from the input's: the d -> 0 limit."""
    prefix = tmp_path / "p"
    assert run(["periodic", "--d", 1e-7, "--nu0", 5, "--f", 3, "--harmonics", 4,
                "--samples", 8, "--out-prefix", prefix]) == 0
    lam0 = 1.0 / (1.0 / 5.0 - 1e-7)
    beta = Spectrum.from_csv(f"{prefix}-beta-f3.csv", omega=2.0 * math.pi * 3.0)
    want = {0: lam0, -1: 0.45 * lam0, 1: 0.45 * lam0}  # mod depth 0.9
    return [abs(beta.coefficient(k) - want.get(k, 0.0)) / lam0 for k in range(-8, 9)]


def _sampler_case(tmp_path, capsys):
    law, cfg = GammaDeadTime(1, 2.0 / 1e-20), SimConfig(2000, 1, (-0.005, 0.05), 0.005, 10.0)
    return simulate_rejection(Step(5.0, 10.0, 0.0), law, cfg).active_hat - 1.0


def _chain_case(tmp_path, capsys):
    """Distance of the active fraction from 1 - nu1*mean once the chain's
    transient has passed; ||M dt||_1 is 1e14 here."""
    out, mean = tmp_path / "chain.csv", 1e-15
    assert run(["pprd-step", "--mean", mean, "--shape", 1, "--nu0", 5, "--nu1", 10,
                "--dt", 0.005, "--out", out]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    return data[data[:, 0] > 0.0, 1] - (1.0 - 10.0 * mean)


def test_overflowing_chain_generator_exits_4(tmp_path):
    # beta * lambda1 is 2e308 at a 1e-307 s mean, past double precision
    done = _entry_point(["pprd-step", "--mean", "1e-307", "--shape", "1", "--nu0", "5",
                         "--nu1", "10", "--out", "x.csv"], tmp_path)
    assert done.returncode == 4
    assert "numerical failure: gamma chain generator overflows" in done.stderr
    assert "Traceback" not in done.stderr
    assert list(tmp_path.iterdir()) == []


# tolerances fixed before the run: the limit is off by O(lam*d), 1e-6 at a
# 1e-7 s dead time, and by rounding at 1e-15 and 1e-20 s
_SHORT_DEAD = {"step": (_step_case, 1e-5), "renewal": (_renewal_case, 1e-5),
               "periodic": (_periodic_case, 1e-5), "sampler": (_sampler_case, 1e-12),
               "chain": (_chain_case, 1e-12)}


@pytest.mark.parametrize("case, tol", _SHORT_DEAD.values(), ids=_SHORT_DEAD)
def test_short_dead_times_meet_the_poisson_limit(tmp_path, capsys, monkeypatch, case, tol):
    """Each route meets the d -> 0 limit."""
    calls = itertools.count()
    kfold = analytic_ppd.kfold_interval_density

    def counted(*args):
        # a renewal sum over all t/d terms would make millions of calls
        if next(calls) >= 1000:
            raise AssertionError("renewal density past 1,000 k-fold terms")
        return kfold(*args)

    monkeypatch.setattr(analytic_ppd, "kfold_interval_density", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        distance = np.abs(case(tmp_path, capsys))
    assert np.all(distance <= tol)


def test_harmonics_domain_reaches_the_solver_cap(tmp_path):
    argv = ["periodic", *_PERIODIC, "--out-prefix", tmp_path / "p", "--harmonics", MAX_TRUNCATION]
    assert cli.build_parser().parse_args([str(a) for a in argv]).harmonics == MAX_TRUNCATION


def test_step_count_at_the_cap():
    assert cli._steps(0.5, 1e-3, "--dt") == 500
    assert cli._steps(1.0, 1.0 / cli._MAX_STEPS, "--dt") == cli._MAX_STEPS
    with pytest.raises(ValueError, match="--bin-width"):
        cli._steps(1.0, 0.5 / cli._MAX_STEPS, "--bin-width")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    count=st.floats(5e6, float(cli._MAX_STEPS)),
    width=st.floats(1e-4, 1e-2),
)
@example(count=8854.620079164091 / 0.0012636405654108816, width=0.0012636405654108816)
def test_monte_carlo_settings_count_the_bins_of_their_grid(count, width):
    # the run starts one bin early, so it holds one bin more than the grid;
    # no simulation runs here
    args = argparse.Namespace(bin_width=width, dt=None, t_max=count * width, mc=1, seed=0)
    _, cfg, centers = cli._mc_bins(args, 5.0, 10.0)
    assert cfg.n_bins == centers.n + 1


@pytest.mark.parametrize("command", [
    [], ["step"], ["periodic"], ["pprd-step"], ["hazard"], ["represent"], ["infer-input"],
    ["validate"],
], ids=lambda c: c[0] if c else "deadtime")
def test_entry_point_help(tmp_path, command):
    done = _entry_point([*command, "--help"], tmp_path)
    assert done.returncode == 0 and "usage:" in done.stdout
    assert list(tmp_path.iterdir()) == []


class TestScenario:
    def test_file_defaults_and_flag_override(self, tmp_path):
        scen = tmp_path / "scen.txt"
        scen.write_text(
            "d = 0.05\nnu0 = 5\nnu1 = 10\nt-max = 0.1\ndt = 0.01\n"
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["step", "--scenario", scen, "--out", out1]) == 0
        assert run(["step", "--scenario", scen, "--nu1", 8, "--out", out2]) == 0
        t1, t2 = Trace.from_csv(out1), Trace.from_csv(out2)
        lam0 = 1.0 / (1.0 / 5.0 - 0.05)
        a0 = 1.0 / (1.0 + lam0 * 0.05)
        assert abs(t1.rate[0] - 20.0 * a0) < 1e-12
        lam1b = 1.0 / (1.0 / 8.0 - 0.05)
        assert abs(t2.rate[0] - lam1b * a0) < 1e-12

    def test_missing_scenario_file(self, tmp_path):
        assert run(["step", "--scenario", tmp_path / "nope.txt"]) == 2

    def test_boolean_scenario_value(self, tmp_path):
        scen = tmp_path / "scen.txt"
        scen.write_text(
            "d = 0.08\nnu0 = 10\nmod-depth = 0.9\nf = 4\n"
            "harmonics = 8\nmax-rate = true\n"
        )
        prefix = tmp_path / "pm"
        assert run(["periodic", "--scenario", scen, "--out-prefix", prefix]) == 0
        with open(f"{prefix}-sweep.csv") as fh:
            assert fh.readline().strip().endswith(",max_nu")


def test_scenario_flag_takes_its_path_after_an_equals_sign(tmp_path, capsys):
    scen = tmp_path / "scen.txt"
    scen.write_text("d = 0.05\nnu0 = 5\nnu1 = 10\nt-max = 0.1\ndt = 0.01\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["step", f"--scenario={scen}", "--out", out1]) == 0
    assert run(["step", "--scenario", scen, "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert run(["step", "--scenario", scen, f"--scenario={scen}", "--out", out1]) == 2
    assert "--scenario given more than once" in capsys.readouterr().err


def _fresh_env():
    """Environment of a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _entry_point(argv, cwd, timeout=120):
    """``python -m deadtime.cli argv`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "deadtime.cli", *argv], env=_fresh_env(),
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


def _loaded_after(modules, probes, argv=None, cwd=None):
    """Which of ``probes`` a fresh interpreter holds after importing ``modules``
    and, given ``argv``, after ``deadtime.cli.main(argv)`` has returned 0."""
    main = "" if argv is None else f"assert deadtime.cli.main({[str(a) for a in argv]!r}) == 0; "
    probe = f"import sys, {modules}; {main}print([m for m in {probes!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", probe], env=_fresh_env(), capture_output=True,
                          text=True, check=True, timeout=120, cwd=cwd)
    return done.stdout.strip().splitlines()[-1]


# np.unique imports numpy.ma, about 16 ms per process; no command needs it
_LEAN = ["scipy", "numpy.ma"]
_ROUTES = [f"deadtime.{m}" for m in ("analytic_ppd", "dde", "gamma_chain", "mc_sim",
                                      "renewal_map", "spectral")]


def test_importing_the_cli_loads_no_scipy():
    assert _loaded_after("deadtime.cli", _LEAN) == "[]"


def test_importing_the_package_loads_no_numpy():
    assert _loaded_after("deadtime", ["numpy", "deadtime.core"]) == "[]"


def test_importing_the_cli_loads_no_hashlib():
    # only reading or writing a law file needs a digest
    assert _loaded_after("deadtime.cli", ["hashlib"]) == "[]"


def test_importing_the_cli_loads_no_process_pool():
    probes = ["multiprocessing", "concurrent.futures.process"]
    assert _loaded_after("deadtime.cli", probes) == "[]"


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    """A periodic run's files, a tabulated gamma law and its hazard table, made
    in this process."""
    where = tmp_path_factory.mktemp("sweep")
    assert run(["periodic", "--d", 0.08, "--nu0", 10, "--f", 4, "--harmonics", 4,
                "--samples", 8, "--out-prefix", where / "p"]) == 0
    ref = GammaDeadTime(3, 50.0)
    x = np.linspace(0.0, ref.quantile(1 - 1e-13), 401)
    pdf = ref.density(x)
    write_law_csv(TabulatedDeadTime(x, pdf / np.trapezoid(pdf, x)), where / "law.csv")
    assert run(["hazard", "--law", f"table:{where / 'law.csv'}", "--lambda0", 10,
                "--tau-max", 0.1, "--out", where / "h.csv"]) == 0
    return where


_SMALL_SWEEP = ["--nu0", 5, "--f", 3, "--harmonics", 4, "--samples", 8, "--out-prefix", "q"]


@pytest.mark.parametrize("argv", [
    ["validate", "p-trace-f4.csv", "p-beta-f4.csv", "p-sweep.csv", "law.csv"],
    ["infer-input", "--beta-csv", "p-beta-f4.csv", "--d", 0.08, "--f", 4, "--out", "in.csv"],
    ["periodic", "--d", 0.08, *_SMALL_SWEEP],
    ["periodic", "--law", "gamma:10,137.5", *_SMALL_SWEEP],
    ["periodic", "--law", "table:law.csv", *_SMALL_SWEEP],
    ["hazard", "--law", "table:law.csv", "--lambda0", 10, "--tau-max", 0.1, "--out", "h.csv"],
], ids=["validate", "infer-input", "periodic-d", "periodic-gamma", "periodic-table",
        "hazard-table"])
def test_commands_without_gamma_evaluations_load_no_scipy(sweep_dir, argv):
    assert _loaded_after("deadtime.cli", _LEAN, argv, cwd=sweep_dir) == "[]"


_PPRD_TRIALS = ["pprd-step", "--mean", 0.08, "--shape", 10, "--nu0", 5, "--nu1", 10,
                "--t-max", 0.2, "--dt", 0.02, "--trials", 3, "--mc", 2000, "--seed", 5]


_STEP = ["step", "--d", 0.02, "--nu0", 5, "--nu1", 10, "--t-max", 0.1, "--dt", 0.005]


@pytest.mark.parametrize("argv", [
    [*_STEP, "--out", "st.csv"],
    [*_STEP, "--mc", 2000, "--seed", 1, "--out", "st.csv"],
    ["pprd-step", "--mean", 0.08, "--shape", 10, "--nu0", 5, "--nu1", 10, "--t-max", 0.2,
     "--dt", 0.02, "--out", "pp.csv"],
    [*_PPRD_TRIALS, "--threads", 1, "--out", "pp.csv"],
    ["hazard", "--law", "gamma:10,137.5", "--lambda0", 10, "--tau-max", 0.1, "--out", "h.csv"],
], ids=["step", "step-mc", "pprd-step", "pprd-step-trials", "hazard-gamma"])
def test_sampling_commands_load_no_scipy(tmp_path, argv):
    # the trials run in this process at one thread, so the probe sees them
    assert _loaded_after("deadtime.cli", _LEAN, argv, cwd=tmp_path) == "[]"


@pytest.mark.parametrize("process", ["lognormal:0,0.8,0.1", "gamma:3,25"],
                         ids=["lognormal", "gamma"])
def test_represent_leaves_scipy_out(tmp_path, process):
    argv = ["represent", "--process", process, "--out", "law.csv"]
    assert _loaded_after("deadtime.cli", _LEAN, argv, cwd=tmp_path) == "[]"


@pytest.mark.parametrize("argv, routes", [
    (None, []),
    (["validate", "p-trace-f4.csv", "p-beta-f4.csv", "p-sweep.csv", "law.csv", "h.csv"], []),
    (["periodic", "--law", "table:law.csv", *_SMALL_SWEEP], ["spectral"]),
    (["infer-input", "--beta-csv", "p-beta-f4.csv", "--d", 0.08, "--f", 4, "--out", "in.csv"],
     ["spectral"]),
    (["hazard", "--law", "gamma:10,137.5", "--lambda0", 10, "--tau-max", 0.1, "--out", "h2.csv"],
     ["mc_sim"]),
    ([*_STEP, "--out", "st.csv"], ["analytic_ppd"]),
    ([*_PPRD_TRIALS, "--threads", 1, "--out", "pp.csv"], ["gamma_chain", "mc_sim"]),
    (["represent", "--process", "gamma:3,25", "--out", "law2.csv"], ["renewal_map"]),
], ids=["import", "validate", "periodic", "infer-input", "hazard", "step", "pprd-step",
        "represent"])
def test_each_command_loads_only_its_route_modules(sweep_dir, argv, routes):
    loaded = _loaded_after("deadtime.cli", _ROUTES, argv, cwd=sweep_dir)
    assert loaded == repr([f"deadtime.{m}" for m in routes])


# A child's ru_maxrss starts from the resident size of the process it was
# forked from, so a small interpreter spawns the command and reaps it as the
# benchmark does, and prints its exit code and peak in KiB.
_PEAK_RSS = """
import os, subprocess, sys, threading
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
timer = threading.Timer(100, proc.kill)
timer.start()
try:
    _, status, usage = os.wait4(proc.pid, 0)
finally:
    timer.cancel()
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def _peak_mb(argv, cwd) -> float:
    """Peak resident size in MB of the command ``argv`` run in a fresh process, which must exit 0."""
    done = subprocess.run([sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "deadtime.cli",
                           *map(str, argv)], env=_fresh_env(), cwd=cwd, capture_output=True,
                          text=True, check=True, timeout=120)
    code, peak_kib = map(int, done.stdout.split())
    assert code == 0
    return peak_kib / 1024.0


_ON_LINUX = pytest.mark.skipif(not sys.platform.startswith("linux"),
                               reason="ru_maxrss is in KiB on Linux")


@_ON_LINUX
def test_represent_peak_memory_budget(tmp_path):
    # the 524,289-node lognormal law: its convolution check runs in row
    # blocks, so the whole process peaks near 70 MB (152 MB with one grid)
    argv = ["represent", "--process", "lognormal:0,0.8,0.1", "--out", "law.csv"]
    assert _peak_mb(argv, tmp_path) <= 100.0


@_ON_LINUX
@pytest.mark.parametrize("argv, budget", [
    # above the gamma rate, its closed tilt at 20,001 ages (the general
    # recovery route it took before peaked at 427 MB with one grid)
    (["hazard", "--law", "gamma:10,137.5", "--lambda0", 900, "--tau-max", 1.2,
      "--points", 20001], 100.0),
    # the generative sampler in chunks of components (72 MB at 2**18 a chunk)
    (["step", "--d", 0.08, "--nu0", 5, "--nu1", 10, "--mc", 1000000], 55.0),
    # the rejection sampler, two trials in one process (97 MB at 2**18 a
    # chunk); its occupation sweep peaks near 30 MB a 2**16-component chunk
    (["pprd-step", "--mean", 0.08, "--shape", 10, "--nu0", 5, "--nu1", 10, "--t-max", 0.6,
      "--dt", 0.005, "--trials", 2, "--mc", 100000, "--threads", 1], 75.0),
], ids=["hazard-above-rate", "step-mc", "pprd-step-mc"])
def test_peak_memory_budget(tmp_path, argv, budget):
    assert _peak_mb([*argv, "--out", "out.csv"], tmp_path) <= budget


def test_first_scipy_import_in_worker_threads_keeps_bytes(tmp_path):
    # fresh processes: one runs the trials itself, the other forks two
    # workers; each trial's bytes depend on its seed alone
    for threads in (1, 2):
        argv = [*_PPRD_TRIALS, "--threads", threads, "--out", f"t{threads}.csv"]
        _loaded_after("deadtime.cli", [], argv, cwd=tmp_path)
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()


_BLAS_PERIODIC = ["periodic", "--law", "gamma:10,137.5", "--nu0", "10", "--mod-depth", "0.9",
                  "--f", "1.20967"]


def _blas_env(blas):
    """``_fresh_env`` with OPENBLAS_NUM_THREADS at ``blas``, or unset for None."""
    env = _fresh_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    return env if blas is None else dict(env, OPENBLAS_NUM_THREADS=blas)


def test_periodic_bytes_at_each_blas_thread_count(tmp_path):
    # at 1.20967 Hz the harmonic solve reaches K 64, where a threaded BLAS
    # rounds differently; a command runs the count OPENBLAS_NUM_THREADS
    # names, one when unset, in a fresh process and in a caller that loaded
    # NumPy at its own count alike
    in_process = ["-c", "import sys, numpy; from deadtime import cli; sys.exit(cli.main(sys.argv[1:]))"]
    names = ["trace-f1.20967.csv", "beta-f1.20967.csv", "sweep.csv"]
    out = {}
    for how, entry in [("entry", ["-m", "deadtime.cli"]), ("caller", in_process)]:
        for blas in (None, "1", "2"):
            prefix = f"{how}{blas}"
            done = subprocess.run(
                [sys.executable, *entry, *_BLAS_PERIODIC, "--out-prefix", prefix],
                env=_blas_env(blas), cwd=tmp_path, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            out[prefix] = [(tmp_path / f"{prefix}-{name}").read_bytes() for name in names]
    assert out["entryNone"] == out["entry1"] == out["callerNone"] == out["caller1"]
    assert out["entry2"] == out["caller2"]


_THREADED_SOLVE = """
from deadtime import Cosine, GammaDeadTime, angular_frequency, signal_spectrum
from deadtime.spectral import HarmonicSystem, solve_active_spectrum
law, f = GammaDeadTime(10, 137.5), 1.20967
lam = 10 / (1 - 10 * law.mean())
drive = signal_spectrum(Cosine(lam, 0.9 * lam, f), angular_frequency(f), 8)
alpha = solve_active_spectrum(HarmonicSystem(angular_frequency(f), 8, law, drive))
print(alpha.order, alpha.coeffs.tobytes().hex())
"""


def test_library_solve_at_each_blas_thread_count():
    # a library caller keeps its own BLAS threads; the threaded K-64 solve
    # stays within 1e-14 of the one-thread solve
    coeffs = {}
    for blas in ("1", "2"):
        done = subprocess.run([sys.executable, "-c", _THREADED_SOLVE], capture_output=True,
                              text=True, env=_blas_env(blas), check=True, timeout=120)
        order, hexed = done.stdout.split()
        assert int(order) == 64
        coeffs[blas] = np.frombuffer(bytes.fromhex(hexed), dtype=complex)
    assert np.max(np.abs(coeffs["1"] - coeffs["2"])) <= 1e-14 * np.max(np.abs(coeffs["1"]))


def _blas_after(code, blas=None):
    """OPENBLAS_NUM_THREADS and the thread count of a fresh interpreter,
    started with the variable at ``blas``, after running ``code``."""
    probe = f"import os\n{code}\nprint(os.environ.get('OPENBLAS_NUM_THREADS'), " \
            "len(os.listdir('/proc/self/task')))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_blas_env(blas), check=True, timeout=120)
    setting, threads = done.stdout.splitlines()[-1].split()
    return setting, int(threads)


def _run_as_main(module):
    return (f"import runpy, sys\nsys.argv = ['deadtime', '--help']\ntry:\n"
            f"    runpy.run_module({module!r}, run_name='__main__')\nexcept SystemExit:\n    pass")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="threads counted in /proc")
def test_only_the_command_line_entries_set_the_blas_threads():
    # ``python -m deadtime.cli`` and ``python -m deadtime`` (the ``deadtime``
    # script) start NumPy with no BLAS worker thread unless the user named a
    # count; importing the module sets nothing, and ``main`` gives a caller
    # its own count back
    for module in ("deadtime.cli", "deadtime"):
        assert _blas_after(_run_as_main(module)) == ("1", 1)
        assert _blas_after(_run_as_main(module), "4")[0] == "4"
    assert _blas_after("import deadtime.cli")[0] == "None"
    caller = ("import numpy\nfrom deadtime import cli\nget, put = cli._openblas_threads()\nput(2)\n"
              "cli.main(['hazard', '--law', 'fixed:0.01', '--lambda0', '10', '--tau-max', '0.1', "
              "'--points', '3'])\nassert get() == 2, get()")
    assert _blas_after(caller)[0] == "None"


def test_importing_every_module_loads_no_scipy():
    package = os.path.dirname(cli.__file__)
    modules = ", ".join(f"deadtime.{m.name}" for m in pkgutil.iter_modules([package]))
    assert "deadtime.spectral" in modules
    assert _loaded_after(f"deadtime, {modules}", ["scipy"]) == "[]"
