"""Tests for the event-level samplers and the renewal hazard."""

import hashlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from deadtime import mc_sim
from deadtime.analytic_ppd import step_response
from deadtime.core import (
    Constant,
    Cosine,
    DeadTimeLaw,
    FixedDeadTime,
    GammaDeadTime,
    NumericalError,
    Step,
    TabulatedDeadTime,
    TimeGrid,
)
from deadtime.mc_sim import (
    EnsembleEstimate,
    SimConfig,
    hazard_pprd,
    read_estimate_csv,
    simulate_generative,
    simulate_rejection,
    write_estimate_csv,
)


def _uniform(keys: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Uniform variate in [0, 1) for draw ``idx`` of each keyed substream."""
    return mc_sim._unit(keys + idx.astype(np.uint64) * mc_sim._GOLDEN)


def tabulated_gamma(order: int, rate: float, n: int = 4001) -> TabulatedDeadTime:
    ref = GammaDeadTime(order, rate)
    x = np.linspace(0.0, ref.quantile(1.0 - 1e-13), n)
    pdf = ref.density(x)
    pdf = pdf / np.trapezoid(pdf, x)
    return TabulatedDeadTime(x, pdf)


class TestHazard:
    def test_fixed_law_is_sharp_threshold(self):
        sig = Constant(12.0)
        law = FixedDeadTime(0.08)
        assert hazard_pprd(sig, law, 0.3, 0.05) == 0.0
        assert hazard_pprd(sig, law, 0.3, 0.09) == 12.0

    def test_fixed_law_follows_time_varying_rate(self):
        sig = Cosine(20.0, 5.0, 3.0)
        law = FixedDeadTime(0.02)
        t = np.linspace(0.0, 0.4, 17)
        got = hazard_pprd(sig, law, t, np.full_like(t, 0.05))
        assert np.array_equal(got, sig.rate(t))
        assert np.all(hazard_pprd(sig, law, t, np.full_like(t, 0.01)) == 0.0)

    def test_fixed_law_far_above_its_rate_overflows_nothing(self):
        # 9000 Hz * 0.08 s = 720: the exposure exp(lam (d - tau)) overflows at
        # the ages below d, whose rows do not hold the point mass
        tau = np.linspace(0.0, 0.2, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hazard_pprd(Constant(9000.0), FixedDeadTime(0.08), np.zeros_like(tau), tau)
        assert np.array_equal(got, np.where(tau >= 0.08, 9000.0, 0.0))

    def test_zero_age_vanishes_without_atom(self):
        assert hazard_pprd(Constant(7.0), GammaDeadTime(10, 137.5), 1.0, 0.0) == 0.0

    def test_zero_age_with_atom_keeps_atom_share(self):
        x = np.linspace(0.0, 0.3, 2001)
        pdf = np.where(x > 0, 0.7 / 0.3 * np.ones_like(x), 0.7 / 0.3)
        pdf = pdf * (0.7 / np.trapezoid(pdf, x))
        law = TabulatedDeadTime(x, pdf, atom_at_zero=0.3)
        h0 = hazard_pprd(Constant(10.0), law, 0.5, 0.0)
        assert h0 == pytest.approx(10.0 * 0.3, abs=1e-12)

    def test_negative_age_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            hazard_pprd(Constant(5.0), GammaDeadTime(3, 50.0), 0.0, -0.01)

    def test_bounded_and_saturating(self):
        lam = 9.0
        law = GammaDeadTime(10, 137.5)
        tau = np.linspace(0.0, 1.2, 241)
        h = hazard_pprd(Constant(lam), law, 0.0, tau)
        assert np.all(h >= 0.0)
        assert np.all(h <= lam * (1.0 + 1e-12))
        assert h[-1] == pytest.approx(lam, abs=1e-9)

    def test_rises_through_the_mean_dead_time(self):
        lam = 10.0
        law = GammaDeadTime(10, 137.5)  # mean 0.08
        h = hazard_pprd(Constant(lam), law, 0.0, np.array([0.02, 0.05, 0.08, 0.16, 0.4]))
        assert h[0] < 1e-3 * lam
        assert np.all(np.diff(h) > 0.0)
        assert h[2] > 0.2 * lam
        assert h[-1] > 0.99 * lam

    def test_gamma_closed_form_against_quadrature_oracle(self):
        lam = 23.0
        law = GammaDeadTime(10, 137.5)
        for tau in (0.03, 0.08, 0.15, 0.4):
            body, _ = integrate.quad(
                lambda x: math.exp(lam * (x - tau)) * law.density(x),
                0.0,
                tau,
                limit=200,
            )
            ef = body + law.survivor(tau)
            want = lam * (1.0 - law.survivor(tau) / ef)
            got = hazard_pprd(Constant(lam), law, 0.0, tau)
            assert got == pytest.approx(want, abs=1e-10)

    def test_tabulated_matches_gamma_closed_form(self):
        lam = 8.0
        gamma = GammaDeadTime(3, 50.0)
        table = tabulated_gamma(3, 50.0, n=8001)
        tau = np.array([0.02, 0.06, 0.1, 0.2, 0.35])
        hg = hazard_pprd(Constant(lam), gamma, 0.0, tau)
        ht = hazard_pprd(Constant(lam), table, 0.0, tau)
        assert np.max(np.abs(hg - ht)) < 2e-5 * lam

    def test_step_window_closed_form_matches_general_quadrature(self):
        sig = Step(before=8.0, after=50.0, t_switch=0.0)
        law = GammaDeadTime(10, 137.5)
        t = np.full(9, 0.05)
        tau = np.linspace(0.06, 0.3, 9)  # every window straddles the switch
        closed = mc_sim._interval_survivor_switch(sig, law, t, tau, law.survivor(tau))
        general = mc_sim._interval_survivor_general(sig, law, t, tau, law.survivor(tau))
        # the quadrature route carries the kink of the exposure across the
        # switch, so its own error dominates the comparison
        assert np.max(np.abs(closed - general)) < 2e-7

    def test_step_far_from_switch_matches_constant(self):
        sig = Step(before=8.0, after=50.0, t_switch=0.0)
        law = GammaDeadTime(10, 137.5)
        h_step = hazard_pprd(sig, law, 2.0, 0.1)
        h_const = hazard_pprd(Constant(50.0), law, 2.0, 0.1)
        assert h_step == pytest.approx(h_const, rel=1e-12)

    def test_old_ages_fire_at_the_input_rate(self):
        # E[F] underflows here; the survivor, never above it, is zero too
        tau = np.array([0.5, 1.0, 2.0])
        for law in (GammaDeadTime(3, 2000.0), tabulated_gamma(3, 2000.0)):
            np.testing.assert_array_equal(hazard_pprd(Constant(1000.0), law, 0.0, tau), 1000.0)

    def test_far_tilt_of_a_high_order_law(self):
        # (rate/(rate - lam))**201 overflows while the incomplete gamma
        # function underflows; the closed form must still match quadrature
        lam, law = 200.799, GammaDeadTime(200, 201.0)
        tau = np.array([0.5, 1.0, 2.0])
        h = hazard_pprd(Constant(lam), law, 0.0, tau)
        assert np.all(np.isfinite(h)) and np.all((h >= 0.0) & (h <= lam))
        surv = law.survivor(tau)
        body = DeadTimeLaw.tilted_integral(law, lam, 0.0, tau, lam * tau)
        np.testing.assert_allclose(h, lam * body / (body + surv), rtol=1e-3, atol=1e-12)

    def test_strong_tilt_where_the_discount_alone_underflows(self):
        # exp(-350 tau) underflows at tau = 2.25 while the tilted integral is
        # 1.1e-296; 60-digit mpmath values of h / lambda
        law, tau = GammaDeadTime(50, 400.0), np.array([2.0, 2.25, 2.5])
        h = hazard_pprd(Constant(350.0), law, 0.0, tau) / 350.0
        want = [0.99999999836928828713, 0.99999999999782166007, 0.99999999999999843405]
        np.testing.assert_allclose(h, want, rtol=0.0, atol=1e-10)

    def test_general_route_integrates_past_the_support_window(self):
        # under this tilt E[F] is mostly density beyond the 1 - 1e-12 window
        class NoClosedTilt(GammaDeadTime):
            def tilted_closed_form(self, c):
                return False

        lam, tau = 200.799, np.array([2.0, 3.0])
        closed = hazard_pprd(Constant(lam), GammaDeadTime(200, 201.0), 0.0, tau)
        general = hazard_pprd(Constant(lam), NoClosedTilt(200, 201.0), 0.0, tau)
        np.testing.assert_allclose(closed, [100.99, 134.16], rtol=1e-4)
        np.testing.assert_allclose(general, closed, rtol=1e-5)


class TestAboveTheGammaRate:
    """A gamma law's tilt is closed at every input rate: at or above the law's
    rate its hazard tends to that rate, and no window takes the general
    recovery quadrature."""

    def test_hazard_matches_mpmath(self):
        # 50-digit mpmath hazards c R/(R + S), R by Kummer's function, at
        # the ages w, 2w and 3w (w the law's support window), 1, 2 and 5 s
        law = GammaDeadTime(10, 137.5)
        tau = np.array([0.38039518461229266, 0.7607903692245853, 1.141185553836878,
                        1.0, 2.0, 5.0])
        want = [111.715837671360805589243423299, 124.469703100145855046313567328,
                128.786139671881939765185921240, 127.564365654717163705117572709,
                132.515485069974582746410130811, 135.502421283412437686824832160]
        got = hazard_pprd(Constant(900.0), law, 0.0, tau)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_no_gamma_law_takes_the_general_quadrature(self, monkeypatch):
        generic = DeadTimeLaw.integrate

        def refuse(law, *args):
            if isinstance(law, GammaDeadTime):
                raise AssertionError("a gamma law reached the 512-cell quadrature")
            return generic(law, *args)

        monkeypatch.setattr(DeadTimeLaw, "integrate", refuse)
        law = GammaDeadTime(10, 137.5)
        tau = np.linspace(0.0, 2.0, 41)
        for share in (1.0, 1.5, 7.0):
            h = hazard_pprd(Constant(share * law.rate), law, 0.0, tau)
            assert np.all((h >= 0.0) & (h <= share * law.rate))
        for sig in (Step(50.0, 300.0, 0.1), Step(300.0, 50.0, 0.1)):
            # every window with tau > 0.05 holds the switch
            h = hazard_pprd(sig, law, 0.15, tau)
            assert np.all((h >= 0.0) & (h <= sig.rate(0.15)))
        ages = mc_sim._stationary_age_quantile(law, 300.0)(np.linspace(0.01, 0.99, 9))
        assert np.all(np.diff(ages) > 0.0)
        cfg = SimConfig(components=300, seed=4, t_span=(0.0, 0.2), bin_width=0.01,
                        lambda_max=300.0)
        est = simulate_rejection(Step(50.0, 300.0, 0.1), law, cfg)
        assert np.all(np.isfinite(est.active_hat))

    def test_levels_at_or_above_the_rate_take_no_table(self):
        law = GammaDeadTime(10, 137.5)
        assert list(mc_sim._occupation_tables(Step(50.0, 300.0, 0.1), law, 0.005)) == [50.0]
        assert mc_sim._occupation_tables(Constant(law.rate), law) == {}
        # R(tau) is infinite there: no node saturates, with no NaN on the way
        for lam in (law.rate, 300.0):
            assert mc_sim._saturation_node(law, lam, mc_sim._table_step(law, lam)) is None

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(order=st.integers(0, 200), share=st.one_of(st.floats(0.05, 0.9), st.floats(1.1, 10.0)))
    @example(order=10, share=900.0 / 137.5)
    @example(order=0, share=1.0)
    @example(order=200, share=1.0)
    def test_hazard_stays_below_the_input_rate_and_tends_to_the_slower_rate(self, order, share):
        law = GammaDeadTime(order, (order + 1) / 0.08)
        c = share * law.rate
        tau = np.concatenate([[0.0], np.geomspace(1e-4, 100.0, 60)]) * law.mean()
        h = hazard_pprd(Constant(c), law, 0.0, tau)
        assert np.all((h >= 0.0) & (h <= c))
        # at 10**4 shapes the slower of the two tails sets the rate to 1e-3
        old = hazard_pprd(Constant(c), law, 0.0, 1e4 * law.mean())
        assert old == pytest.approx(min(c, law.rate), rel=1e-3)


class TestConfigAndEstimate:
    def test_config_validation(self):
        ok = dict(
            components=10, seed=1, t_span=(0.0, 1.0), bin_width=0.1, lambda_max=5.0
        )
        SimConfig(**ok)
        SimConfig(**{**ok, "components": np.int64(10)})
        for bad in [
            {"components": 0},
            {"components": 2.5},
            {"components": 10.0},
            {"bin_width": 0.0},
            {"bin_width": math.inf},
            {"bin_width": math.nan},
            {"t_span": (1.0, 1.0)},
            {"t_span": (0.0, math.inf)},
            {"t_span": (-math.inf, 0.0)},
            {"t_span": (0.0, math.nan)},
            {"lambda_max": 0.0},
            {"lambda_max": math.inf},
            {"lambda_max": math.nan},
        ]:
            with pytest.raises(ValueError):
                SimConfig(**{**ok, **bad})

    def test_bin_grid_centers(self):
        cfg = SimConfig(
            components=1, seed=0, t_span=(-0.1, 0.3), bin_width=0.1, lambda_max=1.0
        )
        assert cfg.n_bins == 4
        assert cfg.bin_grid().times() == pytest.approx([-0.05, 0.05, 0.15, 0.25])

    def test_estimate_csv_round_trip(self, tmp_path):
        grid = TimeGrid(0.05, 0.1, 3)
        est = EnsembleEstimate(
            grid,
            np.array([1.5, 0.0, 2.25]),
            np.array([0.1, 0.0, 0.2]),
            np.array([0.5, np.nan, 1.0]),
            np.array([0.01, np.nan, 0.0]),
            np.array([3, 0, 9]),
        )
        path = tmp_path / "est.csv"
        write_estimate_csv(est, path)
        back = read_estimate_csv(path)
        assert back.grid.times() == pytest.approx(grid.times())
        np.testing.assert_allclose(back.rate_hat, est.rate_hat)
        np.testing.assert_array_equal(back.event_count, est.event_count)
        assert np.isnan(back.active_hat[1])

    def test_estimate_csv_rejects_uneven_times(self, tmp_path):
        path = tmp_path / "est.csv"
        path.write_text(
            "t,nu_hat,nu_se,A_hat,A_se,count\n"
            "0,1,0.1,0.5,0.01,3\n0.001,1,0.1,0.5,0.01,3\n0.005,1,0.1,0.5,0.01,3\n"
        )
        with pytest.raises(ValueError, match="uniformly spaced"):
            read_estimate_csv(path)

    def test_estimate_validation(self):
        grid = TimeGrid(0.0, 1.0, 2)
        with pytest.raises(ValueError, match="shape"):
            EnsembleEstimate(
                grid,
                np.zeros(3),
                np.zeros(2),
                np.zeros(2),
                np.zeros(2),
                np.zeros(2, dtype=int),
            )
        with pytest.raises(ValueError, match="non-negative"):
            EnsembleEstimate(
                grid,
                np.array([-1.0, 0.0]),
                np.zeros(2),
                np.zeros(2),
                np.zeros(2),
                np.zeros(2, dtype=int),
            )


def reference_generative(sig, law, cfg, return_events=False):
    """The generative sampler as one straightforward thinning loop.

    Every round gathers the live components from full-size arrays and
    rebuilds each draw's counter from its index; the package's sampler
    must give the same bits.
    """
    mc_sim._validate_bound(sig, cfg)
    t0, bw, n_bins = cfg.t_span[0], cfg.bin_width, cfg.n_bins
    t_stop = t0 + n_bins * bw
    lam_max = cfg.lambda_max
    lam0 = float(sig.rate_left(t0))
    a_eq = 1.0 / (1.0 + lam0 * law.mean())
    sure_accept = sig.levels() == (lam_max,)
    counts = np.zeros(n_bins, dtype=np.int64)
    dead_diff = np.zeros(n_bins + 1, dtype=np.int64)
    collect = [] if return_events else None
    for c_lo in range(0, cfg.components, mc_sim._CHUNK):
        comp = np.arange(c_lo, min(c_lo + mc_sim._CHUNK, cfg.components), dtype=np.int64)
        keys = mc_sim._component_keys(cfg.seed, comp)
        idx = np.zeros(comp.size, dtype=np.int64)
        u_state = _uniform(keys, idx)
        idx += 1
        u_len = _uniform(keys, idx)
        idx += 1
        u_pos = _uniform(keys, idx)
        idx += 1
        residual = (1.0 - u_pos) * law.length_biased_quantile(u_len)
        blocked = u_state >= a_eq
        t_cur = np.where(blocked, t0 + residual, t0)
        mc_sim._mark_dead(dead_diff, t0, bw, n_bins, np.full(int(blocked.sum()), t0), t_cur[blocked])
        alive = t_cur < t_stop
        while np.any(alive):
            sub = np.nonzero(alive)[0]
            u_e = _uniform(keys[sub], idx[sub])
            idx[sub] += 1
            t_prop = t_cur[sub] - np.log1p(-u_e) / lam_max
            over = t_prop >= t_stop
            alive[sub[over]] = False
            sub, t_prop = sub[~over], t_prop[~over]
            if sub.size == 0:
                continue
            t_cur[sub] = t_prop
            if sure_accept:
                acc = np.ones(sub.size, dtype=bool)
            else:
                u_a = _uniform(keys[sub], idx[sub])
                idx[sub] += 1
                acc = u_a * lam_max < np.asarray(sig.rate(t_prop), dtype=float)
            hit = sub[acc]
            if hit.size:
                t_ev = t_prop[acc]
                b = np.minimum(((t_ev - t0) / bw).astype(np.int64), n_bins - 1)
                counts += np.bincount(b, minlength=n_bins)
                if collect is not None:
                    collect.append((comp[hit], t_ev))
                u_d = _uniform(keys[hit], idx[hit])
                idx[hit] += 1
                x = law.quantile(u_d)
                mc_sim._mark_dead(dead_diff, t0, bw, n_bins, t_ev, t_ev + x)
                t_cur[hit] = t_ev + x
                alive[hit] = t_cur[hit] < t_stop
    active_hat = 1.0 - np.cumsum(dead_diff[:-1]) / cfg.components
    return mc_sim._finish_estimate(cfg, counts, active_hat, active_hat * (1.0 - active_hat), collect)


class TestGenerative:
    def test_equilibrium_rate_fixed_dead_time(self):
        lam, d = 8.0, 0.05
        cfg = SimConfig(
            components=20_000,
            seed=1,
            t_span=(0.0, 5.0),
            bin_width=5.0,
            lambda_max=lam,
        )
        est = simulate_generative(Constant(lam), FixedDeadTime(d), cfg)
        want = lam / (1.0 + lam * d)
        assert abs(est.rate_hat[0] - want) < 3.0 * est.rate_se[0]
        assert abs(est.active_hat[0] - 1.0 / (1.0 + lam * d)) < 4.0 * est.active_se[0]

    def test_stationary_start_leaves_rate_flat(self):
        lam, d = 10.0, 0.04
        cfg = SimConfig(
            components=30_000,
            seed=3,
            t_span=(0.0, 1.0),
            bin_width=0.1,
            lambda_max=lam,
        )
        est = simulate_generative(Constant(lam), FixedDeadTime(d), cfg)
        joint = math.hypot(est.rate_se[0], est.rate_se[-1])
        assert abs(est.rate_hat[0] - est.rate_hat[-1]) < 3.0 * joint

    def test_poisson_limit_without_dead_time(self):
        lam = 5.0
        cfg = SimConfig(
            components=10_000,
            seed=7,
            t_span=(0.0, 2.0),
            bin_width=0.25,
            lambda_max=lam,
        )
        est = simulate_generative(Constant(lam), FixedDeadTime(0.0), cfg)
        assert np.all(np.abs(est.rate_hat - lam) < 3.0 * est.rate_se)
        assert est.active_hat == pytest.approx(np.ones(cfg.n_bins))

    def test_interval_histogram_matches_exact_law(self):
        lam, d = 10.0, 0.05
        cfg = SimConfig(
            components=400,
            seed=11,
            t_span=(0.0, 50.0),
            bin_width=50.0,
            lambda_max=lam,
        )
        _, (comp, times) = simulate_generative(
            Constant(lam), FixedDeadTime(d), cfg, return_events=True
        )
        same = comp[1:] == comp[:-1]
        gaps = np.sort((times[1:] - times[:-1])[same])
        n = gaps.size
        assert n > 50_000
        # exact interval CDF: shifted exponential beyond the dead time
        cdf = np.where(gaps < d, 0.0, 1.0 - np.exp(-lam * (gaps - d)))
        ranks = np.arange(1, n + 1) / n
        sup = max(
            float(np.max(np.abs(ranks - cdf))),
            float(np.max(np.abs(ranks - 1.0 / n - cdf))),
        )
        bound = 4.0 * math.sqrt(math.log(2.0 / 0.05) / (2.0 * n))
        assert sup < bound

    def test_step_scenario_tracks_analytic_response(self):
        d = 0.02
        lam0 = 1.0 / (0.2 - d)
        lam1 = 1.0 / (0.1 - d)
        sig = Step(before=lam0, after=lam1, t_switch=0.0)
        cfg = SimConfig(
            components=50_000,
            seed=13,
            t_span=(-0.1, 0.3),
            bin_width=0.005,
            lambda_max=lam1,
        )
        est = simulate_generative(sig, FixedDeadTime(d), cfg)
        centers = est.grid.times()
        nu_ref = np.empty_like(centers)
        pre = centers < 0.0
        nu_ref[pre] = lam0 / (1.0 + lam0 * d)
        post_grid = TimeGrid(float(centers[~pre][0]), 0.005, int((~pre).sum()))
        trace = step_response(lam0, lam1, d, post_grid)
        nu_ref[~pre] = trace.rate
        within = np.abs(est.rate_hat - nu_ref) < 4.0 * est.rate_se
        assert np.mean(within) >= 0.99
        a_ref = np.empty_like(centers)
        a_ref[pre] = 1.0 / (1.0 + lam0 * d)
        a_ref[~pre] = trace.active
        within_a = np.abs(est.active_hat - a_ref) < 4.0 * est.active_se + 1e-9
        assert np.mean(within_a) >= 0.99

    def test_zero_rate_interval_has_no_events(self):
        sig = Step(before=10.0, after=0.0, t_switch=0.1)
        cfg = SimConfig(
            components=5_000,
            seed=17,
            t_span=(0.0, 0.4),
            bin_width=0.05,
            lambda_max=10.0,
        )
        est = simulate_generative(sig, FixedDeadTime(0.02), cfg)
        assert np.all(est.event_count[2:] == 0)
        assert np.any(est.event_count[:2] > 0)

    def test_bound_below_peak_rejected_before_running(self):
        cfg = SimConfig(
            components=100_000_000,  # would take forever if it actually ran
            seed=1,
            t_span=(0.0, 100.0),
            bin_width=1.0,
            lambda_max=5.0,
        )
        with pytest.raises(ValueError, match="below the peak"):
            simulate_generative(Constant(6.0), FixedDeadTime(0.01), cfg)

    def test_reported_error_calibrated_against_repetitions(self):
        # bins narrower than the dead time keep per-bin counts close to
        # Poisson; wide bins would show the sub-Poisson regularization the
        # refractory period causes and the sqrt(count) model would overshoot
        lam, d = 6.0, 0.05
        reps = 120
        rates = []
        ses = []
        for r in range(reps):
            cfg = SimConfig(
                components=500,
                seed=1000 + r,
                t_span=(0.0, 1.0),
                bin_width=0.02,
                lambda_max=lam,
            )
            est = simulate_generative(Constant(lam), FixedDeadTime(d), cfg)
            rates.append(est.rate_hat)
            ses.append(est.rate_se)
        spread = np.std(np.array(rates), axis=0)
        claimed = np.mean(np.array(ses), axis=0)
        ratio = spread / claimed
        assert np.all(ratio > 0.75)
        assert np.all(ratio < 1.25)
        pooled = float(np.mean(spread) / np.mean(claimed))
        assert 0.85 < pooled < 1.15

    def test_deterministic_and_chunk_invariant(self, monkeypatch):
        lam = 9.0
        law = GammaDeadTime(3, 50.0)
        cfg = SimConfig(
            components=300, seed=42, t_span=(0.0, 1.0), bin_width=0.1, lambda_max=lam
        )
        est1, ev1 = simulate_generative(Constant(lam), law, cfg, return_events=True)
        est2, ev2 = simulate_generative(Constant(lam), law, cfg, return_events=True)
        np.testing.assert_array_equal(ev1[1], ev2[1])
        np.testing.assert_array_equal(est1.rate_hat, est2.rate_hat)
        monkeypatch.setattr(mc_sim, "_CHUNK", 37)
        est3, ev3 = simulate_generative(Constant(lam), law, cfg, return_events=True)
        np.testing.assert_array_equal(ev1[0], ev3[0])
        np.testing.assert_array_equal(ev1[1], ev3[1])
        np.testing.assert_array_equal(est1.event_count, est3.event_count)
        np.testing.assert_array_equal(est1.active_hat, est3.active_hat)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["constant", "up", "down", "cosine"]),
        headroom=st.sampled_from([1.0, 1.3]),
        gamma=st.booleans(),
        chunk=st.sampled_from([mc_sim._CHUNK, 37]),
        seed=st.integers(0, 2**40),
    )
    @example(kind="up", headroom=1.0, gamma=False, chunk=37, seed=3)
    @example(kind="constant", headroom=1.0, gamma=True, chunk=37, seed=4)
    @example(kind="down", headroom=1.0, gamma=True, chunk=mc_sim._CHUNK, seed=5)
    @example(kind="cosine", headroom=1.3, gamma=False, chunk=37, seed=6)
    def test_matches_the_reference_thinning_loop(self, kind, headroom, gamma, chunk, seed):
        lo, hi = 6.0, 15.0
        sig = {
            "constant": Constant(hi),
            "up": Step(lo, hi, 0.13),
            "down": Step(hi, lo, 0.13),
            "cosine": Cosine(0.5 * (lo + hi), 0.5 * (hi - lo), 4.0),
        }[kind]
        law = GammaDeadTime(3, 60.0) if gamma else FixedDeadTime(0.04)
        cfg = SimConfig(components=150, seed=seed, t_span=(-0.01, 0.3), bin_width=0.01,
                        lambda_max=headroom * hi)
        with mock.patch.object(mc_sim, "_CHUNK", chunk):
            est, ev = simulate_generative(sig, law, cfg, return_events=True)
            ref, ev_ref = reference_generative(sig, law, cfg, return_events=True)
            plain = simulate_generative(sig, law, cfg)
        assert ev[0].size > 0
        for got, want in ((ev[0], ev_ref[0]), (ev[1], ev_ref[1])):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        for e in (est, plain):
            for name in ("rate_hat", "rate_se", "active_hat", "active_se", "event_count"):
                np.testing.assert_array_equal(getattr(e, name), getattr(ref, name))


def reference_rejection(sig, law, cfg, return_events=False):
    """The rejection sampler as one straightforward thinning loop.

    Every round gathers the live components from full-size arrays,
    rebuilds each draw's counter from its index and draws an acceptance
    uniform for every proposal, inside the span or not; the package's
    sampler must give the same bits.
    """
    mc_sim._validate_bound(sig, cfg)
    t0, bw, n_bins = cfg.t_span[0], cfg.bin_width, cfg.n_bins
    t_stop = t0 + n_bins * bw
    lam_max = cfg.lambda_max
    lam0 = float(sig.rate_left(t0))
    tables = mc_sim._occupation_tables(sig, law, bw)
    sweep = mc_sim._BirthSweep(sig, law, cfg, tables)
    ts = sig.switch_time() if mc_sim._closed_switch(sig, tables) else None
    counts = np.zeros(n_bins, dtype=np.int64)
    collect = [] if return_events else None
    for c_lo in range(0, cfg.components, mc_sim._CHUNK):
        comp = np.arange(c_lo, min(c_lo + mc_sim._CHUNK, cfg.components), dtype=np.int64)
        keys = mc_sim._component_keys(cfg.seed, comp)
        u_age = _uniform(keys, np.zeros(1, dtype=np.int64))
        last_ev = t0 - mc_sim._stationary_age_quantile(law, lam0)(u_age)
        t_cur = np.full(comp.size, t0)
        excess = None if ts is None else np.full(comp.size, np.nan)
        crossing = True
        # every live component has drawn its age, then two draws a proposal
        draw = np.ones(1, dtype=np.int64)
        alive = np.ones(comp.size, dtype=bool)
        while np.any(alive):
            sub = np.nonzero(alive)[0]
            u_e = _uniform(keys[sub], draw)
            u_a = _uniform(keys[sub], draw + 1)
            draw += 2
            t_prop = t_cur[sub] - np.log1p(-u_e) / lam_max
            over = t_prop >= t_stop
            alive[sub[over]] = False
            sub, t_prop, u_a = sub[~over], t_prop[~over], u_a[~over]
            if sub.size == 0:
                continue
            t_cur[sub] = t_prop
            last = last_ev[sub]
            held = None
            if excess is not None:
                if crossing:
                    fresh = sub[(t_prop > ts) & (last < ts) & np.isnan(excess[sub])]
                    if fresh.size:
                        excess[fresh] = mc_sim._switch_excess(sig, law, ts - last_ev[fresh])
                    crossing = t_prop.min() <= ts
                held = excess[sub]
            acc = mc_sim._accept(sig, law, tables, t_prop, t_prop - last, u_a * lam_max, lam_max,
                                 held)
            hit = sub[acc]
            if hit.size:
                t_ev = t_prop[acc]
                b = np.minimum(((t_ev - t0) / bw).astype(np.int64), n_bins - 1)
                counts += np.bincount(b, minlength=n_bins)
                if collect is not None:
                    collect.append((comp[hit], t_ev))
                sweep.add(last_ev[hit], t_ev)
                last_ev[hit] = t_ev
        sweep.add(last_ev, np.full(comp.size, np.inf))
        sweep.flush(comp.size)
    active_hat = sweep.q_sum / cfg.components
    spread = sweep.q_sq / cfg.components - active_hat**2
    return mc_sim._finish_estimate(cfg, counts, active_hat, spread, collect)


class TestRejection:
    def test_equilibrium_rate_gamma_law(self):
        lam = 5.0
        law = GammaDeadTime(3, 50.0)  # mean 0.08
        cfg = SimConfig(
            components=20_000,
            seed=2,
            t_span=(0.0, 2.0),
            bin_width=2.0,
            lambda_max=lam,
        )
        est = simulate_rejection(Constant(lam), law, cfg)
        want = 1.0 / (1.0 / lam + law.mean())
        assert abs(est.rate_hat[0] - want) < 3.0 * est.rate_se[0]
        a_eq = 1.0 - want * law.mean()
        assert abs(est.active_hat[0] - a_eq) < 4.0 * est.active_se[0] + 1e-4

    def test_matches_generative_for_fixed_law(self):
        lam, d = 10.0, 0.05
        law = FixedDeadTime(d)
        cfg = SimConfig(
            components=20_000,
            seed=5,
            t_span=(0.0, 2.0),
            bin_width=0.2,
            lambda_max=lam,
        )
        est_g = simulate_generative(Constant(lam), law, cfg)
        est_r = simulate_rejection(Constant(lam), law, cfg)
        joint = np.sqrt(est_g.rate_se**2 + est_r.rate_se**2)
        assert np.all(np.abs(est_g.rate_hat - est_r.rate_hat) < 4.0 * joint)

    def test_stationary_start_leaves_rate_flat(self):
        lam = 8.0
        law = GammaDeadTime(10, 137.5)
        cfg = SimConfig(
            components=25_000,
            seed=8,
            t_span=(0.0, 1.0),
            bin_width=0.1,
            lambda_max=lam,
        )
        est = simulate_rejection(Constant(lam), law, cfg)
        joint = math.hypot(est.rate_se[0], est.rate_se[-1])
        assert abs(est.rate_hat[0] - est.rate_hat[-1]) < 3.0 * joint

    def test_zero_rate_interval_has_no_events(self):
        sig = Step(before=10.0, after=0.0, t_switch=0.1)
        law = GammaDeadTime(3, 50.0)
        cfg = SimConfig(
            components=5_000,
            seed=21,
            t_span=(0.0, 0.4),
            bin_width=0.05,
            lambda_max=10.0,
        )
        est = simulate_rejection(sig, law, cfg)
        assert np.all(est.event_count[2:] == 0)
        assert np.any(est.event_count[:2] > 0)

    def test_empirical_hazard_matches_hazard_pprd(self):
        lam = 10.0
        law = GammaDeadTime(10, 137.5)
        cfg = SimConfig(
            components=3_000,
            seed=23,
            t_span=(0.0, 5.0),
            bin_width=5.0,
            lambda_max=lam,
        )
        _, (comp, times) = simulate_rejection(Constant(lam), law, cfg, return_events=True)
        same = comp[1:] == comp[:-1]
        gaps = (times[1:] - times[:-1])[same]
        # censored tail per component: from its last event to the horizon
        last = times[np.concatenate((~same, [True]))]
        tails = 5.0 - last
        edges = np.array([0.05, 0.07, 0.09, 0.12, 0.2])
        for a, b in zip(edges[:-1], edges[1:]):
            hits = int(np.count_nonzero((gaps >= a) & (gaps < b)))
            exposure = float(
                np.sum(np.clip(np.minimum(gaps, b) - a, 0.0, None))
                + np.sum(np.clip(np.minimum(tails, b) - a, 0.0, None))
            )
            # exposure-weighted expected ratio over the bin
            tau = np.linspace(a, b, 101)
            surv = mc_sim._expected_interval_survivor(
                Constant(lam), law, 0.0, tau, law.survivor(tau)
            )
            want = (surv[0] - surv[-1]) / integrate.simpson(surv, x=tau)
            have = hits / exposure
            assert abs(have - want) < 3.5 * math.sqrt(max(hits, 1)) / exposure

    def test_deterministic_and_chunk_invariant(self, monkeypatch):
        lam = 7.0
        law = GammaDeadTime(3, 50.0)
        cfg = SimConfig(
            components=400, seed=77, t_span=(0.0, 1.0), bin_width=0.25, lambda_max=lam
        )
        est1, ev1 = simulate_rejection(Constant(lam), law, cfg, return_events=True)
        monkeypatch.setattr(mc_sim, "_CHUNK", 53)
        est2, ev2 = simulate_rejection(Constant(lam), law, cfg, return_events=True)
        np.testing.assert_array_equal(ev1[0], ev2[0])
        np.testing.assert_array_equal(ev1[1], ev2[1])
        np.testing.assert_array_equal(est1.event_count, est2.event_count)
        np.testing.assert_allclose(est1.active_hat, est2.active_hat, atol=1e-12)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["constant", "up", "down", "cosine"]),
        headroom=st.sampled_from([1.0, 1.3]),
        order=st.sampled_from([None, 0, 10, 50]),
        chunk=st.sampled_from([mc_sim._CHUNK, 37]),
        seed=st.integers(0, 2**40),
    )
    @example(kind="up", headroom=1.0, order=50, chunk=37, seed=3)
    @example(kind="up", headroom=1.3, order=0, chunk=mc_sim._CHUNK, seed=4)
    @example(kind="down", headroom=1.0, order=10, chunk=37, seed=5)
    @example(kind="constant", headroom=1.0, order=None, chunk=37, seed=6)
    @example(kind="cosine", headroom=1.3, order=50, chunk=37, seed=7)
    def test_matches_the_reference_thinning_loop(self, kind, headroom, order, chunk, seed):
        lo, hi = 6.0, 15.0
        sig = {
            "constant": Constant(hi),
            "up": Step(lo, hi, 0.13),
            "down": Step(hi, lo, 0.13),
            "cosine": Cosine(0.5 * (lo + hi), 0.5 * (hi - lo), 4.0),
        }[kind]
        # dead times of mean 0.04 s
        law = FixedDeadTime(0.04) if order is None else GammaDeadTime(order, (order + 1) / 0.04)
        cfg = SimConfig(components=150, seed=seed, t_span=(-0.01, 0.3), bin_width=0.01,
                        lambda_max=headroom * hi)
        with mock.patch.object(mc_sim, "_CHUNK", chunk):
            est, ev = simulate_rejection(sig, law, cfg, return_events=True)
            ref, ev_ref = reference_rejection(sig, law, cfg, return_events=True)
            plain = simulate_rejection(sig, law, cfg)
        assert ev[0].size > 0
        for got, want in ((ev[0], ev_ref[0]), (ev[1], ev_ref[1])):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        for e in (est, plain):
            for name in ("rate_hat", "rate_se", "active_hat", "active_se", "event_count"):
                np.testing.assert_array_equal(getattr(e, name), getattr(ref, name))

    def test_hashes_its_age_exit_wait_and_two_words_a_proposal(self, monkeypatch):
        law = GammaDeadTime(10, 137.5)
        sig = Step(8.3, 50.0, 0.0)
        n = 2003
        cfg = SimConfig(components=n, seed=3, t_span=(-0.005, 0.3), bin_width=0.005,
                        lambda_max=50.0)
        words, proposals = [], []
        unit, accept = mc_sim._unit, mc_sim._accept

        def unit_spy(w):
            words.append(w.size)
            return unit(w)

        def accept_spy(sig, law, tables, t, *args):
            proposals.append(t.size)
            return accept(sig, law, tables, t, *args)

        monkeypatch.setattr(mc_sim, "_unit", unit_spy)
        monkeypatch.setattr(mc_sim, "_accept", accept_spy)
        simulate_rejection(sig, law, cfg)
        # per component its age and the wait that leaves the span; per
        # proposal inside it a wait and an acceptance uniform
        assert sum(words) == 2 * n + 2 * sum(proposals)


class TestOccupationTable:
    @pytest.mark.parametrize("order", [0, 1, 10, 50, 200])
    @pytest.mark.parametrize("lam_share", [0.0, 0.06, 0.4, 0.9])
    def test_matches_exact_occupation(self, order, lam_share):
        law = GammaDeadTime(order, (order + 1) / 0.08)
        lam = lam_share * law.rate
        tables = mc_sim._occupation_tables(Constant(lam), law)
        assert list(tables) == [lam]
        table = tables[lam]
        w = law.support_window()
        tau = np.concatenate(
            [np.linspace(0.0, 3.0 * w, 30001), np.random.default_rng(order).uniform(0.0, 20.0 * w, 5000)]
        )
        want = mc_sim._occupation(Constant(lam), law, 0.0, tau)
        assert np.max(np.abs(table(tau) - want)) <= 1e-8

    def test_ages_past_the_table_are_exact(self, monkeypatch):
        monkeypatch.setattr(mc_sim, "_TABLE_MAX_NODES", 64)
        law = GammaDeadTime(10, 137.5)
        table = mc_sim._occupation_tables(Constant(50.0), law)[50.0]
        tau = np.linspace(0.0, 0.5, 2001)
        # a stencil starting at node floor(age/h) - 1 needs four nodes
        far = tau / table.h >= 62.0
        assert 0 < np.count_nonzero(far) < tau.size
        got = table(tau)
        assert table.values.size <= 64
        want = mc_sim._occupation(Constant(50.0), law, 0.0, tau)
        np.testing.assert_array_equal(got[far], want[far])
        assert np.max(np.abs(got - want)) <= 1e-8

    def test_only_closed_form_regimes_are_tabulated(self):
        gamma = GammaDeadTime(3, 50.0)
        assert list(mc_sim._occupation_tables(Step(10.0, 60.0, 0.0), gamma)) == [10.0]
        assert mc_sim._occupation_tables(Cosine(10.0, 5.0, 2.0), gamma) == {}
        fixed = FixedDeadTime(0.08)
        assert mc_sim._occupation_tables(Constant(10.0), fixed) == {}

    @pytest.mark.parametrize(
        "sig", [Constant(30.0), Step(8.0, 50.0, 0.1)], ids=["constant", "step"]
    )
    def test_sweep_matches_the_exact_sweep(self, sig, monkeypatch):
        law = GammaDeadTime(10, 137.5)
        cfg = SimConfig(
            components=3000, seed=9, t_span=(0.0, 0.4), bin_width=0.01, lambda_max=50.0
        )
        est, ev = simulate_rejection(sig, law, cfg, return_events=True)
        monkeypatch.setattr(mc_sim, "_occupation_tables", lambda *args: {})
        ref, ev_ref = simulate_rejection(sig, law, cfg, return_events=True)
        # the tables feed only the occupation sweep: thinning is untouched
        np.testing.assert_array_equal(ev[0], ev_ref[0])
        np.testing.assert_array_equal(ev[1], ev_ref[1])
        np.testing.assert_array_equal(est.rate_hat, ref.rate_hat)
        np.testing.assert_allclose(est.active_hat, ref.active_hat, rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(est.active_se, ref.active_se, rtol=0.0, atol=1e-8)


def _scaled_run(order: int, kind: str):
    """A short run of ``kind`` input at up to 0.9 of the rate of a gamma law
    whose mean dead time is 0.08 s."""
    law = GammaDeadTime(order, (order + 1) / 0.08)
    hi, lo = 0.9 * law.rate, 0.2 * law.rate
    sig = {"constant": Constant(hi), "up": Step(lo, hi, 0.08), "down": Step(hi, lo, 0.08)}[kind]
    cfg = SimConfig(components=300, seed=order + 11, t_span=(0.0, 0.24), bin_width=0.008,
                    lambda_max=hi)
    return sig, law, cfg


class TestSqueeze:
    @pytest.mark.parametrize("kind", ["constant", "up", "down"])
    @pytest.mark.parametrize("order", [0, 10, 50, 200])
    def test_events_match_the_exact_thinning(self, order, kind, monkeypatch):
        sig, law, cfg = _scaled_run(order, kind)
        exact_calls = []
        hazard = mc_sim.hazard_pprd

        def counted(sig, law, t, tau):
            exact_calls.append(np.size(tau))
            return hazard(sig, law, t, tau)

        monkeypatch.setattr(mc_sim, "hazard_pprd", counted)
        est, ev = simulate_rejection(sig, law, cfg, return_events=True)
        squeezed = sum(exact_calls)
        exact_calls.clear()
        monkeypatch.setattr(mc_sim, "_SQUEEZE_MARGIN", math.inf)
        ref, ev_ref = simulate_rejection(sig, law, cfg, return_events=True)
        # the infinite margin sends every proposal to the exact hazard
        assert squeezed < sum(exact_calls)
        np.testing.assert_array_equal(ev[0], ev_ref[0])
        np.testing.assert_array_equal(ev[1], ev_ref[1])
        np.testing.assert_array_equal(est.event_count, ref.event_count)
        np.testing.assert_array_equal(est.rate_hat, ref.rate_hat)
        np.testing.assert_array_equal(est.active_hat, ref.active_hat)

    @pytest.mark.parametrize("order", [0, 10, 50, 200])
    def test_switch_windows_match_the_exact_thinning(self, order, monkeypatch):
        sig, law, cfg = _scaled_run(order, "up")
        across = []
        hazard = mc_sim.hazard_pprd

        def counted(sig, law, t, tau):
            across.append(int(np.count_nonzero(np.isnan(sig.window_rate(t, tau)))))
            return hazard(sig, law, t, tau)

        monkeypatch.setattr(mc_sim, "hazard_pprd", counted)
        est, ev = simulate_rejection(sig, law, cfg, return_events=True)
        squeezed = sum(across)
        across.clear()
        monkeypatch.setattr(mc_sim, "_SQUEEZE_MARGIN", math.inf)
        ref, ev_ref = simulate_rejection(sig, law, cfg, return_events=True)
        # the identity decides most proposals across the switch; the infinite
        # margin sends all of them to the exact hazard
        assert 10 * squeezed < sum(across)
        np.testing.assert_array_equal(ev[0], ev_ref[0])
        np.testing.assert_array_equal(ev[1], ev_ref[1])
        np.testing.assert_array_equal(est.event_count, ref.event_count)

    def test_table_missing_its_bound_raises(self, monkeypatch):
        monkeypatch.setattr(mc_sim, "_TABLE_BOUND", 1e-30)
        law = GammaDeadTime(10, 137.5)
        # the table checks itself as it is built
        with pytest.raises(NumericalError, match="occupation table"):
            mc_sim._occupation_tables(Constant(30.0), law)
        cfg = SimConfig(components=50, seed=1, t_span=(0.0, 0.1), bin_width=0.01,
                        lambda_max=30.0)
        with pytest.raises(NumericalError, match="occupation table"):
            simulate_rejection(Constant(30.0), law, cfg)

    def test_build_evaluates_every_node_and_half_node_once(self, monkeypatch):
        law = GammaDeadTime(3, 50.0)
        h = mc_sim._table_step(law, 20.0)
        checked = []
        occupation = mc_sim._occupation

        def spy(sig, law, t, tau):
            checked.append(np.asarray(tau) / h)
            return occupation(sig, law, t, tau)

        monkeypatch.setattr(mc_sim, "_occupation", spy)
        table = mc_sim._OccupationTable(law, 20.0)
        assert table.saturates
        # one call for the nodes below saturation, one for every half-node k + 1/2
        # whose stencil, nodes max(k-1, 0) to k+2, is tabulated
        assert len(checked) == 2
        np.testing.assert_allclose(checked[0], np.arange(table.saturation))
        np.testing.assert_allclose(checked[1], np.arange(table.nodes - 2) + 0.5)
        table(np.linspace(0.0, 2.0 * table.nodes * h, 1001))
        assert len(checked) == 2
        exact = occupation(Constant(20.0), law, 0.0, np.arange(table.saturation) * h)
        np.testing.assert_array_equal(table.values[: table.saturation], exact)
        np.testing.assert_array_equal(table.values[table.saturation:], 1.0)
        assert table.values.size == table.nodes

    @pytest.mark.parametrize("sig", [Constant(30.0), Step(8.0, 50.0, 0.1)], ids=["constant", "step"])
    def test_sweep_rows_are_the_table_values_padded_with_ones(self, sig):
        law = GammaDeadTime(10, 137.5)
        cfg = SimConfig(components=10, seed=1, t_span=(0.0, 0.4), bin_width=0.01, lambda_max=50.0)
        tables = mc_sim._occupation_tables(sig, law, cfg.bin_width)
        sweep = mc_sim._BirthSweep(sig, law, cfg, tables)
        assert sweep.k == max(t.nodes for t in tables.values())
        # the step's lower level saturates sooner, so its row is padded
        assert len(tables) == 1 or min(t.nodes for t in tables.values()) < sweep.k
        rows = [sweep.pre] if sig.switch_time() is None else [sweep.pre, sweep.post]
        for lam, got in zip(sig.levels(), rows):
            v = tables[lam].values
            want = np.concatenate([v, np.ones(sweep.k - v.size)])
            np.testing.assert_array_equal(got, np.stack([want, want * want]))


def _switch_case(order, share0, share1, since, age):
    """Step up at t = 0 and a window holding it, given as multiples of the
    mean input interval after the step: ``since`` after the switch, the
    last event ``age`` before it."""
    law = GammaDeadTime(order, (order + 1) / 0.08)
    lam0, lam1 = share0 * law.rate, share1 * law.rate
    t = since / lam1
    a = np.asarray(age, dtype=float) / lam1
    return Step(lam0, lam1, 0.0), law, t, t + a, a


class TestSwitchIdentity:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        order=st.integers(0, 200),
        share1=st.floats(0.01, 0.95),
        drop=st.floats(0.0, 1.0),
        since=st.floats(1e-3, 50.0),
    )
    @example(order=200, share1=0.95, drop=0.05, since=1e-3)
    @example(order=0, share1=0.95, drop=1.0, since=50.0)
    @example(order=50, share1=0.5, drop=0.0, since=0.3)
    def test_matches_the_exact_occupation(self, order, share1, drop, since):
        # the pre-switch rate is the fraction ``drop`` of the post-switch one
        share0 = drop * share1
        ages = np.concatenate([np.geomspace(1e-4, 500.0, 150), [0.0]])
        ages = ages[since + ages < 600.0]
        sig, law, t, tau, a = _switch_case(order, share0, share1, since, ages)
        tables = mc_sim._occupation_tables(sig, law)
        assert mc_sim._closed_switch(sig, tables)
        excess = mc_sim._switch_excess(sig, law, a)
        assert np.all(excess >= -1e-15)
        got = mc_sim._table_occupation(sig, law, t, tau, tables, excess)
        want = mc_sim._occupation(sig, law, t, tau)
        assert np.max(np.abs(got - want)) <= 1e-8

    def test_downward_step_takes_the_exact_path(self, monkeypatch):
        law = GammaDeadTime(10, 137.5)
        sig = Step(0.95 * law.rate, 0.05 * law.rate, 0.0)
        lam1 = sig.levels()[1]
        tables = mc_sim._occupation_tables(sig, law)
        assert list(tables) == list(sig.levels()) and not mc_sim._closed_switch(sig, tables)
        # downward D < 0: the identity cancels and amplifies the table's error
        t, tau = 0.0225, np.array([1.0354])
        x = 1.0 - tables[lam1](tau)
        carried = math.exp(-lam1 * t) * mc_sim._switch_excess(sig, law, tau - t)
        identity = 1.0 - x * law.survivor(tau) / (law.survivor(tau) + carried * x)
        exact = mc_sim._occupation(sig, law, t, tau)
        assert abs(identity - exact)[0] > 1e-3
        # so the tables leave that window to the exact hazard and the exact sweep
        assert np.isnan(mc_sim._table_occupation(sig, law, t, tau, tables))

        def no_identity(*args):
            raise AssertionError("the switch identity ran on a downward step")

        monkeypatch.setattr(mc_sim, "_switch_excess", no_identity)
        cfg = SimConfig(components=500, seed=4, t_span=(-0.05, 0.25), bin_width=0.01,
                        lambda_max=sig.levels()[0])
        est = simulate_rejection(sig, law, cfg)
        monkeypatch.setattr(mc_sim, "_occupation_tables", lambda *args: {})
        ref = simulate_rejection(sig, law, cfg)
        np.testing.assert_array_equal(est.event_count, ref.event_count)
        np.testing.assert_allclose(est.active_hat, ref.active_hat, rtol=0.0, atol=1e-8)


def _sweep_case(order, share_hi, drop, kind, nodes, fill, shift):
    """A short run of ``kind`` input under a gamma law of mean 0.08 s, with a
    bin of ``nodes - 1 + fill`` table steps, so that the sweep takes ``nodes``
    nodes a bin, and for a step a switch ``shift`` of a bin past a center."""
    law = GammaDeadTime(order, (order + 1) / 0.08)
    hi = share_hi * law.rate
    lo = drop * hi
    if kind == "constant":
        levels = (hi,)
    else:
        levels = (lo, hi) if kind == "up" else (hi, lo)
    step = min(mc_sim._table_step(law, lam) for lam in levels)
    bw = (nodes - 1 + fill) * step
    ts = (7.5 + shift) * bw
    sig = Constant(hi) if kind == "constant" else Step(*levels, ts)
    cfg = SimConfig(components=150, seed=order + nodes, t_span=(0.0, 24 * bw), bin_width=bw,
                    lambda_max=hi)
    return sig, law, cfg


class TestBirthSweep:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        order=st.integers(0, 200),
        share_hi=st.floats(0.05, 0.9),
        drop=st.floats(0.0, 1.0),
        kind=st.sampled_from(["constant", "up", "down"]),
        nodes=st.integers(1, 64),
        fill=st.floats(0.01, 1.0),
        shift=st.floats(0.01, 0.99),
    )
    @example(order=10, share_hi=0.4, drop=0.2, kind="up", nodes=64, fill=1.0, shift=0.37)
    @example(order=0, share_hi=0.9, drop=0.1, kind="up", nodes=7, fill=0.3, shift=0.91)
    @example(order=200, share_hi=0.9, drop=0.5, kind="down", nodes=1, fill=0.5, shift=0.5)
    @example(order=50, share_hi=0.9, drop=0.0, kind="up", nodes=2, fill=0.8, shift=0.02)
    def test_matches_the_exact_sweep(self, order, share_hi, drop, kind, nodes, fill, shift):
        sig, law, cfg = _sweep_case(order, share_hi, drop, kind, nodes, fill, shift)
        est, ev = simulate_rejection(sig, law, cfg, return_events=True)
        with mock.patch.object(mc_sim, "_occupation_tables", lambda *args: {}):
            ref, ev_ref = simulate_rejection(sig, law, cfg, return_events=True)
        np.testing.assert_array_equal(ev[0], ev_ref[0])
        np.testing.assert_array_equal(ev[1], ev_ref[1])
        np.testing.assert_array_equal(est.event_count, ref.event_count)
        np.testing.assert_allclose(est.active_hat, ref.active_hat, rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(est.active_se, ref.active_se, rtol=0.0, atol=1e-8)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(order=st.integers(0, 200), share=st.floats(0.0, 0.9))
    @example(order=10, share=50.0 / 137.5)
    @example(order=0, share=0.0)
    def test_ages_past_saturation_are_within_its_bound(self, order, share):
        law = GammaDeadTime(order, (order + 1) / 0.08)
        lam = share * law.rate
        table = mc_sim._OccupationTable(law, lam)
        assume(table.saturation is not None)
        tau = table.saturation * table.h * np.geomspace(1.0, 50.0, 400)
        q = mc_sim._occupation(Constant(lam), law, 0.0, tau)
        assert np.all(1.0 - q <= mc_sim._SATURATION)
        if table.saturates:
            # every stencil past the saturation node reads exactly 1.0
            past = tau >= (table.saturation + 1) * table.h
            assert np.all(table(tau[past]) == 1.0)
            assert table.values.size <= table.nodes

    def test_chunk_invariant_across_a_switch(self, monkeypatch):
        law = GammaDeadTime(10, 137.5)
        sig = Step(8.0, 50.0, 0.1)
        cfg = SimConfig(components=500, seed=5, t_span=(0.0, 0.3), bin_width=0.01, lambda_max=50.0)
        est1, ev1 = simulate_rejection(sig, law, cfg, return_events=True)
        monkeypatch.setattr(mc_sim, "_CHUNK", 37)
        est2, ev2 = simulate_rejection(sig, law, cfg, return_events=True)
        np.testing.assert_array_equal(ev1[0], ev2[0])
        np.testing.assert_array_equal(ev1[1], ev2[1])
        np.testing.assert_array_equal(est1.event_count, est2.event_count)
        np.testing.assert_allclose(est1.active_hat, est2.active_hat, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(est1.active_se, est2.active_se, rtol=0.0, atol=1e-12)

    def test_no_call_during_the_sweep_spans_the_components(self, monkeypatch):
        law = GammaDeadTime(10, 137.5)
        sig = Step(8.3, 50.0, 0.0)
        n = 2003
        cfg = SimConfig(components=n, seed=3, t_span=(-0.005, 0.3), bin_width=0.005,
                        lambda_max=50.0)
        sizes, sweeping = [], []
        flush, occupation = mc_sim._BirthSweep.flush, mc_sim._occupation
        table_call = mc_sim._OccupationTable.__call__

        def sweep(self, *args):
            sweeping.append(True)
            try:
                return flush(self, *args)
            finally:
                sweeping.pop()

        def occupation_spy(sig, law, t, tau):
            if sweeping:
                sizes.append(np.size(tau))
            return occupation(sig, law, t, tau)

        def table_spy(self, tau):
            if sweeping:
                sizes.append(np.size(tau))
            return table_call(self, tau)

        monkeypatch.setattr(mc_sim._BirthSweep, "flush", sweep)
        monkeypatch.setattr(mc_sim, "_occupation", occupation_spy)
        monkeypatch.setattr(mc_sim._OccupationTable, "__call__", table_spy)
        est = simulate_rejection(sig, law, cfg)
        assert est.event_count.sum() > n
        # only first bins under one node and stencils across the switch are exact
        assert n not in sizes
        assert sum(sizes) < n


class TestChunkInvariance:
    """Every draw is a function of its component and index alone, so the
    chunks a run is cut into move no event.  The rejection sampler sums its
    occupations per chunk, so its active fraction may move by rounding."""

    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(
        sampler=st.sampled_from(["generative", "rejection"]),
        kind=st.sampled_from(["constant", "up", "down", "cosine"]),
        order=st.sampled_from([None, 0, 10, 50]),
        seed=st.integers(0, 2**40),
    )
    @example(sampler="rejection", kind="cosine", order=50, seed=1)
    @example(sampler="rejection", kind="up", order=10, seed=2)
    @example(sampler="generative", kind="down", order=None, seed=3)
    @example(sampler="generative", kind="cosine", order=0, seed=4)
    def test_events_and_counts_do_not_depend_on_the_chunk(self, sampler, kind, order, seed):
        lo, hi = 6.0, 15.0
        sig = {
            "constant": Constant(hi),
            "up": Step(lo, hi, 0.03),
            "down": Step(hi, lo, 0.03),
            "cosine": Cosine(0.5 * (lo + hi), 0.5 * (hi - lo), 4.0),
        }[kind]
        # dead times of mean 0.04 s
        law = FixedDeadTime(0.04) if order is None else GammaDeadTime(order, (order + 1) / 0.04)
        cfg = SimConfig(components=1100, seed=seed, t_span=(-0.01, 0.1), bin_width=0.01,
                        lambda_max=hi)
        simulate = simulate_generative if sampler == "generative" else simulate_rejection
        runs = []
        for chunk in (mc_sim._CHUNK, 1000, 37):
            with mock.patch.object(mc_sim, "_CHUNK", chunk):
                runs.append(simulate(sig, law, cfg, return_events=True))
        (whole, events), cut = runs[0], runs[1:]
        assert events[0].size > 0
        for est, ev in cut:
            np.testing.assert_array_equal(ev[0], events[0])
            np.testing.assert_array_equal(ev[1], events[1])
            for name in ("rate_hat", "rate_se", "event_count"):
                np.testing.assert_array_equal(getattr(est, name), getattr(whole, name))
            for name in ("active_hat", "active_se"):
                if sampler == "generative":
                    np.testing.assert_array_equal(getattr(est, name), getattr(whole, name))
                else:
                    np.testing.assert_allclose(getattr(est, name), getattr(whole, name),
                                               rtol=0.0, atol=1e-12)


class TestSamplingInternals:
    def test_length_biased_gamma_quantile_against_numeric_inverse(self):
        law = GammaDeadTime(3, 50.0)
        x = np.linspace(0.0, 0.6, 200_001)
        weighted = x * law.density(x)
        cdf = integrate.cumulative_trapezoid(weighted, x, initial=0.0)
        cdf /= cdf[-1]
        for u in (0.1, 0.5, 0.9):
            want = float(np.interp(u, cdf, x))
            got = float(law.length_biased_quantile(np.array([u]))[0])
            assert got == pytest.approx(want, abs=1e-6)

    def test_stationary_age_quantile_fixed_law(self):
        lam, d = 10.0, 0.1
        law = FixedDeadTime(d)
        total = d + 1.0 / lam
        # below the dead time the age density is flat
        got = float(mc_sim._stationary_age_quantile(law, lam)(np.array([0.3]))[0])
        assert got == pytest.approx(0.3 * total, abs=1e-4)
        # beyond it the exponential tail takes over
        u = 0.8
        rest = u * total - d
        want = d - math.log(1.0 - rest * lam / 1.0) / lam
        got = float(mc_sim._stationary_age_quantile(law, lam)(np.array([u]))[0])
        assert got == pytest.approx(want, abs=1e-4)

    def test_uniform_stream_is_stable(self):
        keys = mc_sim._component_keys(1234, np.arange(4, dtype=np.int64))
        u_a = _uniform(keys, np.zeros(4, dtype=np.int64))
        u_b = _uniform(keys, np.zeros(4, dtype=np.int64))
        np.testing.assert_array_equal(u_a, u_b)
        assert np.all(u_a >= 0.0)
        assert np.all(u_a < 1.0)
        # distinct components and draw indices decorrelate
        u_c = _uniform(keys, np.ones(4, dtype=np.int64))
        assert not np.any(u_a == u_c)

    def test_uniform_stream_values_are_pinned(self):
        # (seed, component, draw) -> the exact variate
        pinned = {
            (0, 0, 0): "0x1.9ff45ea7ce2bcp-3",
            (1234, 3, 0): "0x1.9b8b928f43dbep-2",
            (1234, 3, 1): "0x1.dc530ee590711p-1",
            (2**40 + 7, 1000003, 17): "0x1.82d17d4943c50p-2",
            (42, 7, 123456): "0x1.8305a79d6a29cp-2",
        }
        for (seed, comp, draw), want in pinned.items():
            keys = mc_sim._component_keys(seed, np.array([comp], dtype=np.int64))
            u = _uniform(keys, np.array([draw], dtype=np.int64))
            assert float(u[0]).hex() == want

    @pytest.mark.parametrize("sampler, events, want", [
        (simulate_generative, 1254, "ed49a547d65c6f09ccfa39557ea747a6"),
        (simulate_rejection, 1224, "46bcb7dcfb06dd247ef3b25cc7a1ec85"),
    ])
    def test_seeded_runs_are_pinned(self, sampler, events, want):
        # a step whose upper level is the thinning bound
        cfg = SimConfig(components=500, seed=2024, t_span=(0.0, 0.6), bin_width=0.02, lambda_max=9.0)
        est, ev = sampler(Step(4.0, 9.0, 0.2), GammaDeadTime(3, 40.0), cfg, return_events=True)
        h = hashlib.sha256()
        for a in (est.rate_hat, est.active_hat, est.event_count, ev[0], ev[1]):
            h.update(np.ascontiguousarray(a).tobytes())
        assert ev[0].size == events
        assert h.hexdigest()[:32] == want

    def test_event_just_below_the_end_falls_in_the_last_bin(self):
        # 0.009 lies below the end 9 * 1e-3 of the span, but its quotient
        # rounds up to 9, one past the last bin
        t_stop = 9 * 1e-3
        assert 0.009 < t_stop and int(0.009 / 1e-3) == 9
        assert mc_sim._bin_index(np.array([0.009]), 0.0, 1e-3, 9).tolist() == [8]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        t0=st.floats(-10.0, 10.0),
        bw=st.floats(1e-6, 1.0),
        n_bins=st.integers(1, 10**6),
        share=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_bins_cover_the_span(self, t0, bw, n_bins, share):
        t_stop = t0 + n_bins * bw
        last = np.nextafter(t_stop, -np.inf)
        assume(t0 < last)
        t = np.array([last, min(t0 + share * (t_stop - t0), last)])
        b = mc_sim._bin_index(t, t0, bw, n_bins)
        assert b[0] == n_bins - 1
        assert 0 <= b[1] < n_bins
        # an event well inside a bin keeps the bin it always had
        inner = np.array([t0 + (k + 0.5) * bw for k in (0, n_bins // 2, n_bins - 1)])
        assert mc_sim._bin_index(inner, t0, bw, n_bins).tolist() == ((inner - t0) / bw).astype(np.int64).tolist()

    def test_events_csv_round_trip(self, tmp_path):
        comp = np.array([0, 0, 2], dtype=np.int64)
        times = np.array([0.125, 0.5, 0.75])
        path = tmp_path / "events.csv"
        mc_sim.write_events_csv((comp, times), path)
        c2, t2 = mc_sim.read_events_csv(path)
        np.testing.assert_array_equal(c2, comp)
        np.testing.assert_array_equal(t2, times)
