import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from deadtime import analytic_ppd, dde, gamma_chain
from deadtime.core import (
    Constant,
    Cosine,
    DeadTimeLaw,
    FixedDeadTime,
    GammaDeadTime,
    History,
    Step,
    TabulatedDeadTime,
    TimeGrid,
    Trace,
    angular_frequency,
    equilibrium_history,
    signal_spectrum,
)
from deadtime.dde import integrate_ppd, integrate_pprd, normalization_residual
from deadtime.spectral import (
    HarmonicSystem,
    output_spectrum,
    periodic_rate,
    solve_active_spectrum,
)

# mid-range scenario: 50 ms dead time, output rate stepping 5 -> 10 Hz
D = 0.05
LAM0 = 1.0 / (0.2 - D)
LAM1 = 1.0 / (0.1 - D)


def step_grid(m, t_end=0.6):
    h = D / m
    return TimeGrid(0.0, h, int(round(t_end / h)) + 1)


class PointMass(DeadTimeLaw):
    """A dead time of ``d``: the required methods and ``fixed_duration`` alone."""

    def __init__(self, d):
        self.d = d

    @property
    def fixed_duration(self):
        return self.d

    def mean(self):
        return self.d

    def survivor(self, x):
        return np.where(np.asarray(x, dtype=float) < self.d, 1.0, 0.0)

    def density(self, x):
        return np.zeros(np.shape(x))

    def quantile(self, q):
        return np.full(np.shape(q), self.d)


def test_dde_names_no_law_class():
    # what differs between laws is asked of the law, never keyed on its class
    named = [name for name, v in vars(dde).items()
             if isinstance(v, type) and issubclass(v, DeadTimeLaw) and v is not DeadTimeLaw]
    assert named == []


class TestFixedDelay:
    def test_equilibrium_is_a_fixed_point(self):
        lam, d = 30.0, 0.04
        grid = TimeGrid(0.0, d / 64, 3001)
        tr = integrate_ppd(Constant(lam), d, None, grid)
        assert_allclose(tr.active, 1.0 / (1.0 + lam * d), atol=1e-10, rtol=0)
        assert_allclose(tr.rate, lam / (1.0 + lam * d), atol=1e-9, rtol=0)

    def test_default_history_matches_explicit_equilibrium(self):
        sig = Step(LAM0, LAM1)
        grid = step_grid(64, t_end=0.3)
        a = integrate_ppd(sig, D, None, grid)
        b = integrate_ppd(sig, D, equilibrium_history(LAM0, D), grid)
        assert np.array_equal(a.active, b.active)

    def test_step_matches_analytic(self):
        grid = step_grid(256)
        tr = integrate_ppd(Step(LAM0, LAM1), D, None, grid)
        ref = analytic_ppd.step_response(LAM0, LAM1, D, grid)
        assert tr.active[0] == pytest.approx(1.0 / (1.0 + LAM0 * D), abs=1e-12)
        assert np.max(np.abs(tr.active - ref.active)) < 1e-8

    def test_fourth_order_convergence(self):
        errs = []
        for m in (64, 128):
            grid = step_grid(m)
            tr = integrate_ppd(Step(LAM0, LAM1), D, None, grid)
            ref = analytic_ppd.step_response(LAM0, LAM1, D, grid)
            errs.append(np.max(np.abs(tr.active - ref.active)))
        assert errs[0] / errs[1] > 8.0

    def test_cosine_settles_onto_spectral_steady_state(self):
        d, lam0, f = 0.08, 50.0, 10.0
        eps = 0.9 * lam0
        sig = Cosine(lam0, eps, f)
        h = d / 512
        per = int(round(1.0 / f / h))
        grid = TimeGrid(0.0, h, 21 * per + 1)
        tr = integrate_ppd(sig, d, None, grid)

        w = angular_frequency(f)
        sys = HarmonicSystem(w, 16, FixedDeadTime(d), signal_spectrum(sig, w, 1))
        beta = output_spectrum(sys, solve_active_spectrum(sys))
        tail_grid = TimeGrid(grid.times()[-per - 1], h, per + 1)
        ref = periodic_rate(sys, beta, tail_grid)

        got = tr.rate[-per - 1 :]
        rel = np.sqrt(np.mean((got - ref.rate) ** 2) / np.mean(ref.rate**2))
        assert rel < 1e-5

    def test_restart_from_own_tail_continues_the_solution(self):
        from scipy.interpolate import CubicSpline

        sig = Step(LAM0, LAM1)
        fine = step_grid(256, t_end=0.3)
        first = integrate_ppd(sig, D, None, fine)

        t = fine.times()
        a_spl = CubicSpline(t, first.active)
        nu_spl = CubicSpline(t, first.rate)
        restart = History(active=a_spl, rate=nu_spl)

        h2 = D / 128
        grid2 = TimeGrid(0.2, h2, int(round(0.1 / h2)) + 1)
        second = integrate_ppd(sig, D, restart, grid2)

        overlap = first.active[int(round(0.2 / fine.dt)) :: 2]
        assert overlap.size == second.grid.n
        assert np.max(np.abs(second.active - overlap)) < 1e-9

    def test_step_must_divide_dead_time(self):
        sig = Constant(10.0)
        with pytest.raises(ValueError, match="divide"):
            integrate_ppd(sig, D, None, TimeGrid(0.0, 0.00037, 100))
        with pytest.raises(ValueError, match="divide"):
            integrate_ppd(sig, D, None, TimeGrid(0.0, D / 32, 100))

    def test_stiffness_guard(self):
        with pytest.raises(ValueError, match="rate"):
            integrate_ppd(Constant(2000.0), 0.04, None, TimeGrid(0.0, 0.04 / 64, 10))

    def test_unbalanced_history_rejected(self):
        bad = History(active=lambda t: 0.9, rate=lambda t: 1.0 + 0.0 * np.asarray(t))
        with pytest.raises(ValueError, match="normalization"):
            integrate_ppd(Constant(10.0), D, bad, step_grid(64, t_end=0.1))

    def test_scalar_only_history_integrates(self):
        a, nu = 1.0 / (1.0 + LAM0 * D), LAM0 / (1.0 + LAM0 * D)
        scalar = History(
            active=lambda t: a * math.exp(0.0 * t), rate=lambda t: nu * math.exp(0.0 * t)
        )
        grid = step_grid(64, t_end=0.3)
        got = integrate_ppd(Step(LAM0, LAM1), D, scalar, grid)
        ref = integrate_ppd(Step(LAM0, LAM1), D, equilibrium_history(LAM0, D), grid)
        assert np.array_equal(got.active, ref.active)

    def test_history_fault_on_arrays_propagates(self):
        a, nu = 1.0 / (1.0 + LAM0 * D), LAM0 / (1.0 + LAM0 * D)

        def rate(t):
            if isinstance(t, np.ndarray):
                raise ZeroDivisionError("array-only bug")
            return nu

        broken = History(active=lambda t: a + 0.0 * np.asarray(t), rate=rate)
        with pytest.raises(ValueError, match="history") as info:
            integrate_ppd(Constant(LAM0), D, broken, step_grid(64, t_end=0.1))
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    def test_deep_modulation_stays_in_bounds(self):
        sig = Cosine(50.0, 45.0, 10.0)
        grid = TimeGrid(0.0, 0.08 / 512, 3 * 640 + 1)
        tr = integrate_ppd(sig, 0.08, None, grid)
        assert np.all(tr.active > 0.0)
        assert np.all(tr.active < 1.0)
        assert np.all(tr.rate >= 0.0)


class TestOccupationGate:
    """``History.balance`` is the one gate; each solver keeps its own limit on the gap."""

    @settings(max_examples=30, deadline=None)
    @given(lam=st.floats(0.0, 500.0), d=st.floats(1e-3, 0.2))
    def test_gap_limits_and_scalar_twin(self, lam, d):
        eq = equilibrium_history(lam, d)
        a, nu = float(eq.active(0.0)), float(eq.rate(0.0))
        assert abs(eq.balance(0.0, d) - 1.0) < 1e-12

        def shifted(delta):
            return History(active=lambda t: a - delta, rate=eq.rate)

        for delta in (2e-6, 5e-7, 2e-9, 5e-10):
            assert abs(abs(shifted(delta).balance(0.0, d) - 1.0) - delta) < 1e-12

        lam_run = max(lam, 1.0)
        short = TimeGrid(0.0, d / 3, 2)
        with pytest.raises(ValueError, match="normalization"):
            analytic_ppd.solve_with_history(lam_run, d, shifted(2e-6), short)
        analytic_ppd.solve_with_history(lam_run, d, shifted(5e-7), short)

        m = max(64, math.ceil(10.0 * lam_run * d) + 1)
        grid = TimeGrid(0.0, d / m, 3)
        with pytest.raises(ValueError, match="normalization"):
            integrate_ppd(Constant(lam_run), d, shifted(2e-9), grid)
        integrate_ppd(Constant(lam_run), d, shifted(5e-10), grid)

        twin = History(active=lambda t: a - 5e-10, rate=lambda t: nu * math.exp(0.0 * t))
        assert twin.balance(0.0, d) == shifted(5e-10).balance(0.0, d)


class TestDistributedDelay:
    def test_fixed_law_delegates(self):
        sig = Step(LAM0, LAM1)
        grid = step_grid(128, t_end=0.3)
        a = integrate_pprd(sig, FixedDeadTime(D), None, grid)
        b = integrate_ppd(sig, D, None, grid)
        assert np.array_equal(a.active, b.active)
        assert np.array_equal(a.rate, b.rate)

    def test_any_law_naming_its_one_duration_delegates(self):
        sig = Step(LAM0, LAM1)
        grid = step_grid(128, t_end=0.3)
        a = integrate_pprd(sig, PointMass(D), None, grid)
        b = integrate_ppd(sig, D, None, grid)
        assert np.array_equal(a.active, b.active)
        assert np.array_equal(a.rate, b.rate)

    def test_constant_input_holds_equilibrium(self):
        law = GammaDeadTime(order=3, rate=50.0)
        lam = 5.0
        nu = 1.0 / (1.0 / lam + law.mean())
        w = law.quantile(1.0 - 1e-12)
        h = w / 1024
        grid = TimeGrid(0.0, h, int(round(1.5 / h)) + 1)
        tr = integrate_pprd(Constant(lam), law, None, grid)
        assert_allclose(tr.active, 1.0 - nu * law.mean(), atol=1e-9, rtol=0)
        assert_allclose(tr.rate, nu, atol=1e-8, rtol=0)

    def test_step_matches_state_space_chain(self):
        n, rate = 10, 137.5
        law = GammaDeadTime(order=n, rate=rate)
        lam0 = 1.0 / (0.2 - law.mean())
        lam1 = 1.0 / (0.1 - law.mean())
        w = law.quantile(1.0 - 1e-12)
        h = w / 4096
        grid = TimeGrid(0.0, h, int(round(0.5 / h)) + 1)
        tr = integrate_pprd(Step(lam0, lam1), law, None, grid)
        ref = gamma_chain.step_response(n, rate, lam0, lam1, grid)
        assert np.max(np.abs(tr.active - ref.active)) < 1e-6

    def test_step_guard(self):
        law = GammaDeadTime(order=3, rate=50.0)
        with pytest.raises(ValueError, match="coarse"):
            integrate_pprd(Constant(5.0), law, None, TimeGrid(0.0, 0.004, 100))

    @pytest.mark.parametrize("table", [False, True], ids=["gamma", "table"])
    def test_equilibrium_history_passes_the_gate(self, table):
        law = GammaDeadTime(order=3, rate=100.0)
        if table:
            x = np.linspace(0.0, law.quantile(1.0 - 1e-13), 2001)
            law = TabulatedDeadTime(x, law.density(x) / np.trapezoid(law.density(x), x))
        sig = Step(20.0, 60.0, 0.0)
        grid = TimeGrid(0.0, law.support_window() / 512, 600)
        explicit = integrate_pprd(sig, law, equilibrium_history(20.0, law.mean()), grid)
        assert np.array_equal(explicit.active, integrate_pprd(sig, law, None, grid).active)

    def test_history_off_the_occupation_balance_rejected(self):
        law = GammaDeadTime(order=3, rate=100.0)
        grid = TimeGrid(0.0, law.support_window() / 512, 100)
        eq = equilibrium_history(30.0, law.mean())
        # balance 0.5 + 10 * 0.04 = 0.9
        low = History(active=lambda t: 0.5, rate=lambda t: 10.0 + 0.0 * np.asarray(t))
        for hist in (low, History(lambda t: eq.active(t) + 2e-6, eq.rate)):
            with pytest.raises(ValueError, match="normalization"):
                integrate_pprd(Constant(30.0), law, hist, grid)
        integrate_pprd(Constant(30.0), law, History(lambda t: eq.active(t) + 5e-7, eq.rate), grid)

    def test_short_history_rejected(self):
        law = GammaDeadTime(order=3, rate=50.0)

        def rate(t):
            t = np.asarray(t, dtype=float)
            if np.any(t < -0.01):
                raise ValueError("out of range")
            return 3.0 + 0.0 * t

        hist = History(active=lambda t: 0.76, rate=rate)
        w = law.quantile(1.0 - 1e-12)
        h = w / 512
        with pytest.raises(ValueError, match="cover"):
            integrate_pprd(Constant(5.0), law, hist, TimeGrid(0.0, h, 100))


class TestNormalizationResidual:
    def test_equilibrium_fixed_dead_time(self):
        lam, d = 30.0, 0.04
        grid = TimeGrid(0.0, d / 64, 2001)
        tr = integrate_ppd(Constant(lam), d, None, grid)
        rep = normalization_residual(tr, Constant(lam), FixedDeadTime(d))
        assert rep.max_abs < 1e-12

    def test_step_transient(self):
        grid = step_grid(256)
        sig = Step(LAM0, LAM1)
        tr = integrate_ppd(sig, D, None, grid)
        rep = normalization_residual(tr, sig, FixedDeadTime(D))
        assert rep.times[0] >= grid.t0 + D - 1e-12
        assert rep.max_abs < 1e-6

    def test_residual_shrinks_with_the_step(self):
        sig = Step(LAM0, LAM1)
        maxima = []
        for m in (64, 128):
            tr = integrate_ppd(sig, D, None, step_grid(m))
            maxima.append(normalization_residual(tr, sig, FixedDeadTime(D)).max_abs)
        # quadratic in h up to an O(h^2) relative correction on the constant
        assert maxima[0] / maxima[1] >= 3.99

    def test_gamma_equilibrium(self):
        law = GammaDeadTime(order=3, rate=50.0)
        lam = 5.0
        w = law.quantile(1.0 - 1e-12)
        h = w / 1024
        grid = TimeGrid(0.0, h, int(round(2.5 * w / h)) + 1)
        tr = integrate_pprd(Constant(lam), law, None, grid)
        rep = normalization_residual(tr, Constant(lam), law)
        assert rep.max_abs < 1e-9

    def test_too_short_trace_rejected(self):
        lam, d = 30.0, 0.04
        grid = TimeGrid(0.0, d / 64, 30)
        tr = integrate_ppd(Constant(lam), d, None, grid)
        with pytest.raises(ValueError, match="short"):
            normalization_residual(tr, Constant(lam), FixedDeadTime(d))

    def test_fixed_window_must_hold_whole_steps(self):
        lam, d = 30.0, 0.04
        tr = integrate_ppd(Constant(lam), d, None, TimeGrid(0.0, d / 64, 200))
        # off the step grid, or one cell long
        for law in (FixedDeadTime(d * (1.0 + 1e-6)), FixedDeadTime(d / 64)):
            with pytest.raises(ValueError, match="does not resolve the dead time"):
                normalization_residual(tr, Constant(lam), law)

    def test_spread_window_must_hold_two_steps(self):
        lam, law = 5.0, GammaDeadTime(order=3, rate=50.0)
        h = 1.5 * law.support_window()
        tr = Trace(TimeGrid(0.0, h, 10), np.full(10, 0.5), np.full(10, 2.5))
        with pytest.raises(ValueError, match="does not resolve the memory window"):
            normalization_residual(tr, Constant(lam), law)
        with pytest.raises(ValueError, match="no positive support window"):
            normalization_residual(tr, Constant(lam), PointMass(0.0))

    def test_fixed_weights_are_the_sharp_trapezoid(self):
        h = D / 64
        w = FixedDeadTime(D).survivor_weights(h)
        assert w.size == 65 and w[0] == w[-1] == 0.5 * h
        assert np.all(w[1:-1] == h)
