"""Tests for the renewal-to-refractory mapping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from deadtime import renewal_map
from deadtime.core import (
    FixedDeadTime,
    GammaDeadTime,
    NotRepresentableError,
    TabulatedDeadTime,
    read_law_csv,
    simpson_weights,
    write_law_csv,
)
from deadtime.mc_sim import SimConfig, simulate_generative
from deadtime.core import Constant
from deadtime.renewal_map import (
    HazardCheck,
    PprdRepresentation,
    RenewalSpec,
    check_hazard_condition,
    construct_gamma,
    construct_lognormal,
    convolution_residual,
    dead_time_from_interval,
    lognormal_minimal_rate,
    minimal_lambda,
    _criterion_grid,
)


def lognormal_pdf(x, mu, sigma, delta):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    z = (np.log(x[pos] / delta) - mu) / sigma
    out[pos] = np.exp(-0.5 * z * z) / (x[pos] * sigma * math.sqrt(2 * math.pi))
    return out


class TestRenewalSpec:
    def test_gamma_factory_matches_reference_density(self):
        spec = RenewalSpec.from_gamma(3, 25.0)
        ref = GammaDeadTime(3, 25.0)
        x = np.linspace(1e-4, 0.5, 64)
        np.testing.assert_allclose(spec.interval_pdf(x), ref.density(x), rtol=1e-13)
        np.testing.assert_allclose(
            spec.interval_pdf_derivative(x), ref.density_derivative(x), rtol=1e-12
        )

    def test_gamma_factory_hazard_consistent_with_quadrature(self):
        # the interval hazard h = f/S gives h - h'/h = -f'/f, the criterion
        spec = RenewalSpec.from_gamma(2, 10.0)
        worst = -math.inf
        for xq in np.geomspace(1e-3 * spec.x_max, spec.x_max, 200):
            surv, _ = integrate.quad(
                lambda s: float(spec.interval_pdf(s)), xq, np.inf, limit=200
            )
            f = float(spec.interval_pdf(xq))
            h = f / surv
            hp = float(spec.interval_pdf_derivative(xq)) / surv + h * h
            worst = max(worst, h - hp / h)
        lam_min = minimal_lambda(spec)
        assert abs(worst - lam_min) / lam_min < 1e-6

    def test_lognormal_tail_quantile_is_the_scipy_value(self):
        assert renewal_map._NORMAL_TAIL_Z == float(special.ndtri(1.0 - 1e-10))

    def test_lognormal_factory_normalized(self):
        spec = RenewalSpec.from_lognormal(0.0, 0.8, 0.1)
        x = np.linspace(1e-6, spec.x_max, 400001)
        mass = np.trapezoid(spec.interval_pdf(x), x)
        assert abs(mass - 1.0) < 1e-6

    def test_unnormalized_density_rejected(self):
        ref = GammaDeadTime(2, 10.0)
        with pytest.raises(ValueError, match="mass"):
            RenewalSpec(
                interval_pdf=lambda x: 0.9 * ref.density(x),
                x_max=ref.quantile(1 - 1e-10),
            )

    def test_inconsistent_hazard_rejected(self):
        # the density alone carries the process; there is no hazard to supply
        spec = RenewalSpec.from_gamma(2, 10.0)
        with pytest.raises(TypeError):
            RenewalSpec(
                interval_pdf=spec.interval_pdf,
                x_max=spec.x_max,
                hazard=lambda x: 1.1 * spec.interval_pdf(x),
            )

    def test_sampled_factory_roundtrips_gamma(self):
        ref = GammaDeadTime(3, 25.0)
        x = np.linspace(0.0, ref.quantile(1 - 1e-12), 20001)
        spec = RenewalSpec.from_sampled(x, ref.density(x))
        probe = np.linspace(0.01, 0.4, 50)
        np.testing.assert_allclose(
            spec.interval_pdf(probe), ref.density(probe), atol=1e-6 * 25.0
        )


class TestDeadTimeFromInterval:
    def test_gamma_interval_drops_one_power(self):
        beta = 25.0
        spec = RenewalSpec.from_gamma(3, beta)
        rep = dead_time_from_interval(spec, beta)
        expected = GammaDeadTime(2, beta)
        probe = np.linspace(0.0, spec.x_max, 500)
        np.testing.assert_allclose(
            rep.law.density(probe), expected.density(probe), atol=1e-10
        )
        assert rep.law.atom0 == 0.0
        assert rep.input_rate == beta

    def test_exponential_interval_collapses_to_atom(self):
        beta = 12.0
        spec = RenewalSpec.from_gamma(0, beta)
        rep = dead_time_from_interval(spec, beta)
        assert abs(rep.law.atom0 - 1.0) < 1e-9
        probe = np.linspace(0.0, spec.x_max, 200)
        assert np.max(np.abs(rep.law.density(probe))) < 1e-9 * beta

    def test_rate_below_exponential_factor_not_representable(self):
        beta = 25.0
        spec = RenewalSpec.from_gamma(3, beta)
        with pytest.raises(NotRepresentableError) as err:
            dead_time_from_interval(spec, 0.5 * beta)
        assert err.value.x is not None and err.value.x > 0.0

    def test_lognormal_matches_product_form(self):
        mu, sigma, delta = -0.2, 0.9, 0.3
        lam = 2.0 * lognormal_minimal_rate(mu, sigma, delta)
        spec = RenewalSpec.from_lognormal(mu, sigma, delta)
        rep = dead_time_from_interval(spec, lam)
        x = np.geomspace(1e-3 * delta, 0.8 * spec.x_max, 300)
        dens = lognormal_pdf(x, mu, sigma, delta)
        correction = 1.0 - (1.0 + (np.log(x / delta) - mu) / sigma**2) / (x * lam)
        np.testing.assert_allclose(rep.law.density(x), dens * correction, atol=1e-9)
        assert rep.law.atom0 == 0.0

    def test_requires_derivative(self):
        ref = GammaDeadTime(2, 10.0)
        spec = RenewalSpec(interval_pdf=ref.density, x_max=ref.quantile(1 - 1e-10))
        with pytest.raises(ValueError, match="derivative"):
            dead_time_from_interval(spec, 10.0)

    def test_tabulated_mass_is_unit(self):
        spec = RenewalSpec.from_gamma(3, 25.0)
        rep = dead_time_from_interval(spec, 25.0)
        law = rep.law
        assert isinstance(law, TabulatedDeadTime)
        mass = law.atom0 + np.trapezoid(law.density(law.x), law.x)
        assert abs(mass - 1.0) < 2e-9


class TestHazardCondition:
    def test_exponential_supremum_is_rate(self):
        beta = 7.0
        spec = RenewalSpec.from_gamma(0, beta)
        out = check_hazard_condition(spec, beta)
        assert isinstance(out, HazardCheck)
        assert out.admissible
        assert abs(out.supremum - beta) < 1e-9 * beta
        below = check_hazard_condition(spec, 0.9 * beta)
        assert not below.admissible
        assert below.violation_x is not None

    def test_gamma_interval_admissible_at_own_rate(self):
        spec = RenewalSpec.from_gamma(3, 25.0)
        assert check_hazard_condition(spec, 25.0).admissible

    def test_lognormal_threshold_and_violation_location(self):
        mu, sigma, delta = 0.0, 0.8, 0.1
        bound = lognormal_minimal_rate(mu, sigma, delta)
        spec = RenewalSpec.from_lognormal(mu, sigma, delta)
        assert check_hazard_condition(spec, bound * (1 + 1e-9)).admissible
        out = check_hazard_condition(spec, 0.9 * bound)
        assert not out.admissible
        ridge = delta * math.exp(mu + 1.0 - sigma**2)
        assert abs(out.violation_x - ridge) / ridge < 0.25

    def test_agreement_with_construction(self):
        # the two admissibility routes must agree, including where they fail
        mu, sigma, delta = 0.1, 0.7, 0.2
        bound = lognormal_minimal_rate(mu, sigma, delta)
        spec = RenewalSpec.from_lognormal(mu, sigma, delta)
        lam = 0.95 * bound
        verdict = check_hazard_condition(spec, lam)
        assert not verdict.admissible
        with pytest.raises(NotRepresentableError) as err:
            dead_time_from_interval(spec, lam)
        assert abs(err.value.x - verdict.violation_x) / verdict.violation_x < 0.3
        good = 1.05 * bound
        assert check_hazard_condition(spec, good).admissible
        dead_time_from_interval(spec, good)

    def test_violation_found_only_by_refinement(self):
        # a rate between the grid maximum of -f'/f and its refined supremum
        # passes every grid node, so only the refined supremum rejects it
        spec = RenewalSpec.from_lognormal(0.0, 0.8, 0.1)
        grid_max = float(np.max(_criterion_grid(spec)[3]))
        sup = check_hazard_condition(spec, 100.0).supremum
        rate = 0.5 * (grid_max + sup)
        assert grid_max < rate * (1 + 1e-9) < sup
        assert grid_max == pytest.approx(10.9011919, abs=1e-7)
        assert sup == pytest.approx(10.9011926, abs=1e-7)
        out = check_hazard_condition(spec, rate)
        assert not out.admissible
        assert out.supremum == sup
        assert out.violation_x == pytest.approx(0.1433, abs=1e-4)

    def test_monotone_in_rate(self):
        spec = RenewalSpec.from_lognormal(0.0, 0.6, 0.5)
        lam0 = minimal_lambda(spec)
        for factor in (1.0 + 1e-6, 2.0, 10.0):
            assert check_hazard_condition(spec, factor * lam0).admissible

    def test_missing_hazard_rejected(self):
        ref = GammaDeadTime(2, 10.0)
        spec = RenewalSpec(interval_pdf=ref.density, x_max=ref.quantile(1 - 1e-10))
        with pytest.raises(ValueError, match="derivative"):
            check_hazard_condition(spec, 10.0)


class TestMinimalLambda:
    def test_lognormal_closed_form(self):
        mu, sigma, delta = 0.0, 0.8, 0.1
        spec = RenewalSpec.from_lognormal(mu, sigma, delta)
        expected = lognormal_minimal_rate(mu, sigma, delta)
        assert abs(minimal_lambda(spec) - expected) / expected < 1e-6

    def test_lognormal_other_parameters(self):
        mu, sigma, delta = -0.5, 1.2, 0.05
        spec = RenewalSpec.from_lognormal(mu, sigma, delta)
        expected = lognormal_minimal_rate(mu, sigma, delta)
        assert abs(minimal_lambda(spec) - expected) / expected < 1e-6

    def test_exponential_returns_rate(self):
        beta = 4.5
        spec = RenewalSpec.from_gamma(0, beta)
        assert abs(minimal_lambda(spec) - beta) / beta < 1e-9

    def test_gamma_two_stage_bounded_by_rate(self):
        beta = 10.0
        spec = RenewalSpec.from_gamma(1, beta)
        lam_min = minimal_lambda(spec)
        assert lam_min <= beta * (1 + 1e-9)
        assert check_hazard_condition(spec, lam_min * (1 + 1e-9)).admissible

    def test_unbounded_hazard_detected(self):
        spec = RenewalSpec.from_gamma(0, 1e13)
        with pytest.raises(NotRepresentableError, match="unbounded"):
            minimal_lambda(spec)

    @settings(max_examples=40, deadline=None)
    @given(
        spec_args=st.one_of(
            st.tuples(st.integers(1, 6), st.floats(5.0, 100.0)),
            st.tuples(
                st.floats(-0.5, 0.5), st.floats(0.4, 1.2), st.floats(0.05, 0.5)
            ),
        )
    )
    def test_minimal_lambda_is_the_construction_threshold(self, spec_args):
        lognormal = len(spec_args) == 3
        factory = RenewalSpec.from_lognormal if lognormal else RenewalSpec.from_gamma
        spec = factory(*spec_args)
        lam_min = minimal_lambda(spec)
        if lognormal:
            closed = lognormal_minimal_rate(*spec_args)
            assert abs(lam_min - closed) / closed < 1e-9
        dead_time_from_interval(spec, lam_min * (1 + 1e-6))
        assert check_hazard_condition(spec, lam_min * (1 + 1e-9)).admissible
        with pytest.raises(NotRepresentableError):
            dead_time_from_interval(spec, 0.9 * lam_min)


class TestConstructors:
    def test_gamma_constructor_analytic_law(self):
        rep = construct_gamma(3, 25.0)
        assert rep.input_rate == 25.0
        assert rep.law == GammaDeadTime(2, 25.0)
        probe = np.linspace(0.0, 0.6, 200)
        expected = 25.0**3 * probe**2 * np.exp(-25.0 * probe) / 2.0
        np.testing.assert_allclose(rep.law.density(probe), expected, rtol=1e-12)

    def test_gamma_constructor_degenerate_index(self):
        rep = construct_gamma(0, 8.0)
        assert rep.law == FixedDeadTime(0.0)
        assert rep.law.atom0 == 1.0
        assert rep.law.mean() == 0.0

    def test_gamma_constructor_single_stage(self):
        rep = construct_gamma(1, 8.0)
        assert rep.law == GammaDeadTime(0, 8.0)

    def test_gamma_constructor_validation(self):
        with pytest.raises(ValueError):
            construct_gamma(-1, 8.0)
        with pytest.raises(ValueError):
            construct_gamma(2.5, 8.0)
        with pytest.raises(ValueError):
            construct_gamma(2, 0.0)

    def test_lognormal_default_rate_touches_zero(self):
        mu, sigma, delta = 0.0, 0.8, 0.1
        rep = construct_lognormal(mu, sigma, delta)
        assert abs(rep.input_rate - lognormal_minimal_rate(mu, sigma, delta)) < 1e-12
        law = rep.law
        vals = law.density(law.x)
        assert np.min(vals) >= 0.0
        mass = law.atom0 + np.trapezoid(vals, law.x)
        assert abs(mass - 1.0) < 2e-9
        ridge = delta * math.exp(mu + 1.0 - sigma**2)
        near = (law.x > 0.5 * ridge) & (law.x < 2.0 * ridge)
        assert np.min(vals[near]) < 1e-6

    def test_lognormal_below_bound_rejected(self):
        mu, sigma, delta = 0.0, 0.8, 0.1
        bound = lognormal_minimal_rate(mu, sigma, delta)
        with pytest.raises(ValueError, match="minimum"):
            construct_lognormal(mu, sigma, delta, input_rate=0.99 * bound)

    def test_lognormal_generous_rate_strictly_positive(self):
        rep = construct_lognormal(0.0, 0.8, 0.1, input_rate=100.0)
        vals = rep.law.density(rep.law.x)
        interior = (rep.law.x > 0.02) & (rep.law.x < 0.3)
        assert np.all(vals[interior] > 0.0)


class TestConvolutionIdentity:
    def test_gamma_interval_reassembles(self):
        beta = 25.0
        spec = RenewalSpec.from_gamma(3, beta)
        rep = dead_time_from_interval(spec, beta)
        assert convolution_residual(rep, spec) < 1e-8

    def test_gamma_constructor_reassembles(self):
        beta = 25.0
        spec = RenewalSpec.from_gamma(3, beta)
        rep = construct_gamma(3, beta)
        assert convolution_residual(rep, spec) < 1e-8

    def test_exponential_atom_reassembles(self):
        beta = 12.0
        spec = RenewalSpec.from_gamma(0, beta)
        rep = construct_gamma(0, beta)
        assert convolution_residual(rep, spec) < 1e-10 * beta

    def test_lognormal_reassembles(self):
        mu, sigma, delta = 0.0, 0.8, 0.1
        spec = RenewalSpec.from_lognormal(mu, sigma, delta)
        rep = construct_lognormal(mu, sigma, delta)
        assert convolution_residual(rep, spec) < 1e-6

    @pytest.mark.parametrize("build", [
        lambda: (construct_lognormal(0.0, 0.8, 0.1), RenewalSpec.from_lognormal(0.0, 0.8, 0.1)),
        lambda: (construct_gamma(3, 25.0), RenewalSpec.from_gamma(3, 25.0)),
        lambda: (construct_gamma(0, 12.0), RenewalSpec.from_gamma(0, 12.0)),
    ], ids=["lognormal", "gamma", "atom"])
    def test_row_blocks_keep_the_bits_of_the_full_grid(self, build):
        rep, spec = build()
        lam = rep.input_rate
        t = np.geomspace(spec.x_max * 1e-4, spec.x_max, 257)
        x_lo = min(spec.x_max * 1e-9, float(t[0]) * 1e-3)
        s = np.linspace(0.0, 1.0, 4097)
        y_lo, y_hi = math.log(x_lo), np.log(t)
        x = np.exp(y_lo + (y_hi[:, None] - y_lo) * s[None, :])
        dens = np.asarray(rep.law.density(x.ravel()), dtype=float).reshape(x.shape)
        integ = dens * x * lam * np.exp(-lam * (t[:, None] - x))
        conv = (integ * simpson_weights(4096, 1.0)[None, :]).sum(axis=1) * (y_hi - y_lo) / 4096
        conv += float(rep.law.atom0) * lam * np.exp(-lam * t)
        full = float(np.max(np.abs(conv - spec.interval_pdf(t))))
        assert convolution_residual(rep, spec) == full


class TestSimulatedIntervals:
    def test_gamma_representation_reproduces_interval_law(self):
        # generate the refractory stream and compare interval quantiles
        beta = 50.0
        rep = construct_gamma(3, beta)
        cfg = SimConfig(
            components=400, seed=1234, t_span=(0.0, 40.0), bin_width=1.0,
            lambda_max=beta,
        )
        _est, events = simulate_generative(
            Constant(beta), rep.law, cfg, return_events=True
        )
        comp, times = events
        gaps = []
        for c in range(400):
            tc = times[comp == c]
            if tc.size > 1:
                gaps.append(np.diff(tc))
        gaps = np.concatenate(gaps)
        assert gaps.size > 20000
        ref = GammaDeadTime(3, beta)
        empirical = np.sort(gaps)
        grid = np.linspace(0.01, 0.25, 40)
        cdf_hat = np.searchsorted(empirical, grid) / empirical.size
        cdf_true = 1.0 - ref.survivor(grid)
        dkw = math.sqrt(math.log(2.0 / 0.01) / (2.0 * empirical.size))
        assert np.max(np.abs(cdf_hat - cdf_true)) < 1.2 * dkw


class TestSerialization:
    def test_tabulated_law_roundtrip(self, tmp_path):
        rep = construct_lognormal(0.0, 0.8, 0.1)
        path = tmp_path / "law.csv"
        write_law_csv(rep.law, path)
        back = read_law_csv(path)
        assert abs(back.atom0 - rep.law.atom0) < 1e-15
        probe = np.linspace(0.0, 0.4, 100)
        np.testing.assert_allclose(
            back.density(probe), rep.law.density(probe), atol=1e-12
        )

    def test_representation_validation(self):
        with pytest.raises(ValueError):
            PprdRepresentation(0.0, FixedDeadTime(0.01))
        with pytest.raises(ValueError):
            PprdRepresentation(float("nan"), FixedDeadTime(0.01))
