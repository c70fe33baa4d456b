import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from deadtime.core import History, TimeGrid, equilibrium_history
from deadtime.analytic_ppd import (
    PpdParams,
    equilibrium_active_fraction,
    fundamental_solution,
    kfold_interval_density,
    renewal_density,
    solve_with_history,
    step_response,
)

P = PpdParams(lam=5.0, d=0.1)


# --- independent quadrature oracle -----------------------------------------
# Convolution powers of the interval density computed by support-aware
# trapezoid rules, never through the module's gamma-law formula.  The density
# is right-continuous at its support edge, so edge nodes tolerate float dust.


def _f_oracle(t):
    t = np.asarray(t, dtype=float)
    gap = t - P.d
    return np.where(gap >= -1e-12, P.lam * np.exp(-P.lam * np.clip(gap, 0.0, None)), 0.0)


def _conv_oracle(g, g_support, t, n=20001):
    lo, hi = g_support, t - P.d
    if hi <= lo:
        return 0.0
    s = np.linspace(lo, hi, n)
    return float(np.trapezoid(g(s) * _f_oracle(t - s), s))


# frozen ahead of implementation from the oracle above (n=2001 and n=4001
# agree to 1e-16)
TRIPLE_CONV_AT_HALF = 0.9196986029286058


class TestIntervalDensity:
    def test_inside_dead_time(self):
        assert kfold_interval_density(P, 1, 0.05) == 0.0

    def test_at_edge(self):
        assert kfold_interval_density(P, 1, 0.1) == 5.0

    def test_exponential_tail(self):
        assert kfold_interval_density(P, 1, 0.3) == pytest.approx(5.0 * math.exp(-1.0), rel=1e-15)

    def test_normalized_with_mean(self):
        # integrate from the support edge; a grid straddling the jump at d
        # would pick up first-order quadrature error
        t = np.linspace(P.d, 6.0, 600001)
        pdf = kfold_interval_density(P, 1, t)
        assert np.trapezoid(pdf, t) == pytest.approx(1.0, abs=1e-7)
        assert np.trapezoid(t * pdf, t) == pytest.approx(P.d + 1.0 / P.lam, abs=1e-6)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            kfold_interval_density(P, 1, -0.1)


class TestKfold:
    def test_k0_rejected(self):
        with pytest.raises(ValueError):
            kfold_interval_density(P, 0, 0.5)

    def test_boundary_vanishes_for_k2(self):
        assert kfold_interval_density(P, 2, 2 * P.d) == 0.0

    def test_support_is_exact(self):
        for k in (1, 2, 3, 7):
            t = np.linspace(0.0, k * P.d * (1 - 1e-12), 50)
            assert np.all(kfold_interval_density(P, k, t) == 0.0)

    def test_triple_convolution_oracle(self):
        def ff(s):
            return np.asarray([_conv_oracle(_f_oracle, P.d, si, n=2001) for si in np.atleast_1d(s)])

        oracle = _conv_oracle(ff, 2 * P.d, 0.5, n=2001)
        assert oracle == pytest.approx(TRIPLE_CONV_AT_HALF, abs=1e-12)
        assert kfold_interval_density(P, 3, 0.5) == pytest.approx(TRIPLE_CONV_AT_HALF, abs=1e-9)

    def test_norm_for_each_k(self):
        t = np.linspace(0.0, 8.0, 400001)
        for k in (2, 5):
            assert np.trapezoid(kfold_interval_density(P, k, t), t) == pytest.approx(
                1.0, abs=1e-6
            )

    def test_large_k_stays_finite(self):
        # log-space evaluation: k=400 would overflow a naive power
        val = kfold_interval_density(P, 400, 400 * P.d + 80.0)
        assert np.isfinite(val) and val > 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 40),
        lam=st.floats(1.0, 500.0),
        d=st.floats(1e-3, 0.2),
    )
    def test_k_dead_times_plus_a_gamma_wait(self, k, lam, d):
        p = PpdParams(lam, d)
        below = np.linspace(0.0, k * d, 51)[:-1]
        assert np.all(kfold_interval_density(p, k, below) == 0.0)
        # a gamma wait of k stages has mean k/lam and spread sqrt(k)/lam
        t = np.linspace(k * d, k * d + (k + 12.0 * math.sqrt(k) + 30.0) / lam, 200001)
        pdf = kfold_interval_density(p, k, t)
        assert np.trapezoid(pdf, t) == pytest.approx(1.0, abs=1e-6)
        assert np.trapezoid(t * pdf, t) == pytest.approx(k * (d + 1.0 / lam), rel=1e-6)


class TestRenewalDensity:
    def test_below_first_support(self):
        assert renewal_density(P, 0.05) == 0.0

    def test_first_support_edge(self):
        assert renewal_density(P, P.d) == pytest.approx(P.lam, rel=1e-15)

    def test_rejects_nonpositive_lag(self):
        with pytest.raises(ValueError):
            renewal_density(P, 0.0)

    def test_stationary_limit(self):
        t = 100.0 * (1.0 / P.lam + P.d)
        assert renewal_density(P, t) == pytest.approx(P.lam / (1 + P.lam * P.d), abs=1e-6)

    def test_zero_dead_time_is_flat(self):
        p = PpdParams(lam=3.0, d=0.0)
        assert_allclose(renewal_density(p, np.array([0.01, 1.0, 5.0])), 3.0)

    def test_renewal_identity(self):
        # R(t) = f(t) + (f * R)(t); endpoints of the convolution sit on the
        # one-sided limits of the integrand, supplied analytically
        t_probe = 0.5
        s = np.linspace(P.d, t_probe - P.d, 60001)
        vals = kfold_interval_density(P, 1, s) * renewal_density(P, np.clip(t_probe - s, 1e-12, None))
        vals[-1] = kfold_interval_density(P, 1, t_probe - P.d) * P.lam  # R(d+) = lam
        conv = np.trapezoid(vals, s)
        expect = renewal_density(P, t_probe) - kfold_interval_density(P, 1, t_probe)
        assert conv == pytest.approx(expect, abs=1e-8)


class TestFundamentalSolution:
    def test_value_at_zero(self):
        assert fundamental_solution(P, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_zero_before_start(self):
        assert fundamental_solution(P, -0.3) == 0.0
        assert_allclose(fundamental_solution(P, np.array([-1.0, -1e-9])), 0.0)

    def test_stationary_limit(self):
        t = 100.0 * (1.0 / P.lam + P.d)
        assert fundamental_solution(P, t) == pytest.approx(1.0 / (1 + P.lam * P.d), abs=1e-6)

    def test_requires_positive_rate(self):
        with pytest.raises(ValueError):
            fundamental_solution(PpdParams(0.0, 0.1), 1.0)

    def test_solves_delay_equation(self):
        # residual of g' = lam*(g(t-d) - g(t)) by central differences on
        # points away from the kink lattice t = k*d
        h = 1e-6
        t = P.d * (np.arange(1, 10, dtype=float) + 0.37)
        gp = (fundamental_solution(P, t + h) - fundamental_solution(P, t - h)) / (2 * h)
        delayed = np.where(t >= P.d, fundamental_solution(P, np.clip(t - P.d, 0.0, None)), 0.0)
        resid = gp + P.lam * fundamental_solution(P, t) - P.lam * delayed
        assert np.max(np.abs(resid)) < 1e-6


class TestEquilibrium:
    def test_reference_point(self):
        lam = 1.0 / (0.2 - 0.02)
        assert equilibrium_active_fraction(lam, 0.02) == pytest.approx(0.9, abs=1e-12)
        assert lam * equilibrium_active_fraction(lam, 0.02) == pytest.approx(5.0, abs=1e-12)

    def test_no_input(self):
        assert equilibrium_active_fraction(0.0, 0.5) == 1.0

    def test_no_dead_time(self):
        assert equilibrium_active_fraction(7.0, 0.0) == 1.0


def _fig2_rates(nu0, nu1, d):
    return 1.0 / (1.0 / nu0 - d), 1.0 / (1.0 / nu1 - d)


class TestStepResponse:
    def test_continuity_at_switch(self):
        lam0, lam1 = _fig2_rates(5.0, 10.0, 0.05)
        grid = TimeGrid(0.0, 0.001, 2)
        tr = step_response(lam0, lam1, 0.05, grid)
        a0 = equilibrium_active_fraction(lam0, 0.05)
        assert tr.active[0] == pytest.approx(a0, abs=1e-10)
        assert tr.rate[0] == pytest.approx(lam1 * a0, abs=1e-8)

    def test_settles_to_new_equilibrium(self):
        d = 0.05
        lam0, lam1 = _fig2_rates(5.0, 10.0, d)
        grid = TimeGrid(0.0, 0.01, 301)
        tr = step_response(lam0, lam1, d, grid)
        assert tr.active[-1] == pytest.approx(equilibrium_active_fraction(lam1, d), abs=1e-6)
        assert tr.rate[-1] == pytest.approx(10.0, abs=1e-5)

    def test_overshoot_and_ringing(self):
        # upward step: rate jumps above the new stationary value, then rings
        # with the dead-time period while decaying
        d = 0.05
        lam0, lam1 = _fig2_rates(5.0, 10.0, d)
        grid = TimeGrid(0.0, d / 200, 1601)
        tr = step_response(lam0, lam1, d, grid)
        assert tr.rate[0] > 10.0
        t = grid.times()
        first = tr.rate[(t >= 0) & (t < d)]
        second = tr.rate[(t >= d) & (t < 2 * d)]
        assert np.ptp(second) < np.ptp(first)
        # successive ringing maxima are spaced somewhere between the dead
        # time and the mean inter-event interval of the new state
        interior = tr.rate[1:-1]
        is_max = (interior > tr.rate[:-2]) & (interior > tr.rate[2:])
        peaks = t[1:-1][is_max]
        assert len(peaks) >= 2
        spacing = np.diff(peaks)
        assert np.all(spacing > d) and np.all(spacing < 1.1 * (d + 1.0 / lam1))

    def test_zero_dead_time(self):
        grid = TimeGrid(0.0, 0.1, 5)
        tr = step_response(3.0, 6.0, 0.0, grid)
        assert_allclose(tr.active, 1.0)
        assert_allclose(tr.rate, 6.0)

    def test_empty_start(self):
        # lam0 = 0 means an all-active ensemble; the response is the
        # fundamental solution itself
        d, lam1 = 0.1, 5.0
        grid = TimeGrid(0.0, 0.01, 81)
        tr = step_response(0.0, lam1, d, grid)
        g = fundamental_solution(PpdParams(lam1, d), grid.times())
        assert_allclose(tr.active, g, rtol=0, atol=1e-12)

    def test_normalization_along_trace(self):
        # occupation balance: rate integral over one look-back window plus
        # the active fraction equals one; piecewise Simpson with segment
        # boundaries on the kink lattice
        from scipy.integrate import simpson

        d = 0.08
        lam0, lam1 = _fig2_rates(5.0, 10.0, d)
        m = 512
        h = d / m
        grid = TimeGrid(0.0, h, 6 * m + 1)
        tr = step_response(lam0, lam1, d, grid)
        nu0 = lam0 * equilibrium_active_fraction(lam0, d)
        t = grid.times()

        def window_integral(j):
            # integral over [t_j - d, t_j]; the rate is the old equilibrium
            # before time zero, so that part is exact, and the post-switch
            # part is Simpson on grid samples (kinks land on nodes)
            if j >= m:
                return simpson(tr.rate[j - m : j + 1], dx=h)
            before = nu0 * (d - t[j])
            if j == 0:
                return before
            return before + simpson(tr.rate[: j + 1], dx=h)

        worst = 0.0
        for j in range(0, len(t), 16):
            resid = abs(window_integral(j) + tr.active[j] - 1.0)
            worst = max(worst, resid)
        assert worst < 1e-6

    def test_requires_positive_target_rate(self):
        with pytest.raises(ValueError):
            step_response(5.0, 0.0, 0.1, TimeGrid(0.0, 0.1, 2))


class TestSolveWithHistory:
    def test_equilibrium_is_fixed_point(self):
        lam, d = 8.0, 0.05
        grid = TimeGrid(0.0, 0.005, 61)
        tr = solve_with_history(lam, d, equilibrium_history(lam, d), grid)
        a0 = equilibrium_active_fraction(lam, d)
        assert np.max(np.abs(tr.active - a0)) < 1e-10

    def test_reproduces_step_response(self):
        d = 0.05
        lam0, lam1 = _fig2_rates(5.0, 10.0, d)
        grid = TimeGrid(0.0, d / 16, 97)
        ref = step_response(lam0, lam1, d, grid)
        got = solve_with_history(lam1, d, equilibrium_history(lam0, d), grid)
        assert np.max(np.abs(got.active - ref.active)) < 1e-8

    def test_rejects_unnormalized_history(self):
        bad = History(active=lambda t: 0.5, rate=lambda t: 0.1)
        with pytest.raises(ValueError, match="normalization"):
            solve_with_history(5.0, 0.1, bad, TimeGrid(0.0, 0.01, 4))

    def test_ramp_history_stays_in_bounds(self):
        # admissible non-constant history: linear active fraction, rate set
        # by differentiating the occupation balance
        lam, d = 6.0, 0.1
        a_start, a_end = 0.70, 0.75

        def active(t):
            return a_start + (a_end - a_start) * (t + d) / d

        # rate history chosen constant to satisfy the t=0 normalization
        nu_hist = (1.0 - a_end) / d

        hist = History(active=active, rate=lambda t: nu_hist)
        grid = TimeGrid(0.0, d / 32, 129)
        tr = solve_with_history(lam, d, hist, grid)
        assert np.all(tr.active >= 0.0) and np.all(tr.active <= 1.0)
        assert tr.active[0] == pytest.approx(a_end, abs=1e-9)
