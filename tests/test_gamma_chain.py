import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm as scipy_expm

from deadtime.core import Constant, Cosine, NumericalError, Sampled, Step, TimeGrid
from deadtime.gamma_chain import (
    ChainState,
    build_generator,
    conserved_functional,
    equilibrium_state,
    integrate,
    matrix_exponential,
    step_response,
)

# Fig-4-style scenario: mean dead time 80 ms, rate stepping 5 -> 10 Hz
MEAN = 0.08
LAM0 = 1.0 / (0.2 - MEAN)
LAM1 = 1.0 / (0.1 - MEAN)


def beta_for(n):
    return (n + 1) / MEAN


class TestGenerator:
    def test_n0_layout(self):
        m = build_generator(0, 3.0, 2.0)
        assert_allclose(m, [[-3.0, 6.0], [1.0, -2.0]])

    def test_conservation_null_vector(self):
        for n, beta, lam in [(0, 3.0, 2.0), (4, 11.0, 0.7), (10, 137.5, 50.0)]:
            m = build_generator(n, beta, lam)
            w = np.concatenate((np.full(n + 1, 1.0 / beta), [1.0]))
            assert_allclose(w @ m, 0.0, atol=1e-13)

    def test_equilibrium_in_kernel(self):
        for n, beta, lam in [(0, 3.0, 2.0), (10, 137.5, 8.333333333333334)]:
            m = build_generator(n, beta, lam)
            eq = equilibrium_state(n, beta, lam)
            assert np.max(np.abs(m @ eq.values)) < 1e-12

    def test_eigenvalue_structure(self):
        for n, beta, lam in [(10, beta_for(10), LAM0), (10, beta_for(10), LAM1),
                             (50, beta_for(50), LAM1)]:
            eig = np.linalg.eigvals(build_generator(n, beta, lam))
            order = np.argsort(eig.real)[::-1]
            assert abs(eig[order[0]]) < 1e-10
            assert eig[order[1]].real < -1e-3


class TestEquilibrium:
    def test_reference_point(self):
        # mean 80 ms, input tuned for a 5 Hz stationary output
        eq = equilibrium_state(10, beta_for(10), LAM0)
        nu = eq.values[0]
        assert nu == pytest.approx(5.0, abs=1e-12)
        assert eq.active == pytest.approx(0.6, abs=1e-12)
        assert_allclose(eq.aux, 5.0)

    def test_rate_saturates_at_inverse_mean(self):
        eq = equilibrium_state(3, 50.0, 1e12)
        assert eq.values[0] == pytest.approx(50.0 / 4.0, rel=1e-9)

    def test_zero_rate(self):
        eq = equilibrium_state(2, 10.0, 0.0)
        assert eq.active == 1.0
        assert_allclose(eq.aux, 0.0)

    def test_conserved_functional_is_one(self):
        for lam in (0.0, 0.5, 8.0, 300.0):
            eq = equilibrium_state(7, 100.0, lam)
            assert conserved_functional(eq, 100.0) == pytest.approx(1.0, abs=1e-14)


class TestMatrixExponential:
    def test_against_scipy(self):
        rng = np.random.default_rng(3)
        for size in (2, 5, 12):
            m = rng.normal(scale=4.0, size=(size, size))
            mine, ref = matrix_exponential(m), scipy_expm(m)
            assert np.max(np.abs(mine - ref)) < 1e-12 * max(np.max(np.abs(ref)), 1.0)

    def test_generator_times_large_step(self):
        m = build_generator(10, beta_for(10), LAM1) * 0.3
        assert_allclose(matrix_exponential(m), scipy_expm(m), rtol=1e-11, atol=1e-13)

    def test_zero_matrix(self):
        assert_allclose(matrix_exponential(np.zeros((4, 4))), np.eye(4))


class TestStepResponse:
    def test_starts_at_old_equilibrium(self):
        n = 10
        tr = step_response(n, beta_for(n), LAM0, LAM1, TimeGrid(0.0, 0.01, 3))
        eq = equilibrium_state(n, beta_for(n), LAM0)
        assert tr.active[0] == eq.active
        assert tr.rate[0] == pytest.approx(LAM1 * eq.active, rel=1e-14)

    def test_settles_to_new_equilibrium(self):
        n = 10
        t_long = 50.0 * max(MEAN, 1.0 / LAM1)
        tr = step_response(n, beta_for(n), LAM0, LAM1, TimeGrid(t_long, 0.01, 2))
        eq = equilibrium_state(n, beta_for(n), LAM1)
        assert tr.active[0] == pytest.approx(eq.active, abs=1e-10)
        assert tr.rate[0] == pytest.approx(10.0, abs=1e-8)

    def test_conservation_along_trajectory(self):
        n, beta = 10, beta_for(10)
        grid = TimeGrid(0.0, 0.002, 500)
        tr = step_response(n, beta, LAM0, LAM1, grid)
        # reconstruct the aux sum from the conserved functional: A + S/beta = 1
        # must hold, so S = beta*(1 - A) stays non-negative and bounded
        s = beta * (1.0 - tr.active)
        assert np.all(s >= 0.0)
        # direct check at the end point via a fresh propagation; a single
        # one-second exponential needs 14 squarings, so allow their roundoff
        m = build_generator(n, beta, LAM1)
        b = equilibrium_state(n, beta, LAM0).values
        b_end = matrix_exponential(m * grid.t_end) @ b
        w = np.concatenate((np.full(n + 1, 1.0 / beta), [1.0]))
        assert w @ b_end == pytest.approx(1.0, abs=1e-11)

    def test_approaches_fixed_dead_time_with_order(self):
        # larger kernel order concentrates the dead-time law; the transient
        # should move toward the deterministic-dead-time response
        from deadtime.analytic_ppd import step_response as ppd_step

        grid = TimeGrid(0.0, 0.002, 251)
        ref = ppd_step(LAM0, LAM1, MEAN, grid)
        dist = {}
        for n in (10, 50):
            tr = step_response(n, beta_for(n), LAM0, LAM1, grid)
            dist[n] = np.sqrt(np.mean((tr.rate - ref.rate) ** 2))
        assert dist[50] < dist[10]

    @pytest.mark.parametrize("n, mean, stiff_mean", [(1, 3e-5, 2e-5), (10, 2e-4, 1e-4)])
    def test_stiff_step_meets_the_closed_form(self, n, mean, stiff_mean):
        # output 5 -> 10 Hz; after the transient the active fraction is 1 - 10*mean,
        # on both sides of ||M dt||_1 = 4096, where the chain once refused the step
        grid = TimeGrid(0.0, 0.005, 401)
        for m in (mean, stiff_mean):
            beta, lam0, lam1 = (n + 1) / m, 1.0 / (0.2 - m), 1.0 / (0.1 - m)
            tr = step_response(n, beta, lam0, lam1, grid)
            assert tr.active[-1] == pytest.approx(1.0 - 10.0 * m, abs=1e-12)

    @pytest.mark.parametrize("t0, mean", [(1000.0, 1e-6), (10.0, 1e-4)])
    def test_long_lead_in_meets_the_closed_form(self, t0, mean):
        # input 5 -> 10 Hz; squaring one exponential over the whole lead-in once
        # missed the settled active fraction by 9.4e-7 (t0 = 1000 s)
        n, lam1 = 1, 10.0
        tr = step_response(n, (n + 1) / mean, 5.0, lam1, TimeGrid(t0, 1e-6, 3))
        nu1 = 1.0 / (1.0 / lam1 + mean)
        assert np.max(np.abs(tr.active - (1.0 - nu1 * mean))) <= 1e-12

    def test_overflowing_generator_raises(self):
        # beta * lam1 = 2e308 is past double precision
        with pytest.raises(NumericalError, match="generator overflows"):
            step_response(1, 2.0 / 1e-307, 5.0, 10.0, TimeGrid(0.0, 0.005, 3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n=st.integers(0, 200),
    log_mean=st.floats(-16.0, 0.0),
    dt=st.floats(1e-4, 0.05),
    t0=st.one_of(st.just(0.0), st.floats(0.0, 1000.0)),
)
def test_chain_keeps_its_occupation_sum_and_settles_to_the_closed_form(n, log_mean, dt, t0):
    """Output nu0 -> nu1 = min(10 Hz, 0.5/mean) at every mean dead time down to 1e-16 s."""
    mean = 10.0**log_mean
    nu1 = min(10.0, 0.5 / mean)
    lam0, lam1 = (1.0 / (1.0 / nu - mean) for nu in (0.5 * nu1, nu1))
    beta = (n + 1) / mean
    m = build_generator(n, beta, lam1)
    b0 = equilibrium_state(n, beta, lam0).values
    after = ChainState(matrix_exponential(m * dt) @ b0)
    assert abs(conserved_functional(after, beta) - 1.0) <= 1e-12
    grid = TimeGrid(t0, dt, 20)
    tr = step_response(n, beta, lam0, lam1, grid)
    # settled: the slowest transient mode has decayed by e^-40
    slowest = -np.sort(np.linalg.eigvals(m).real)[-2]
    settled = grid.times() >= 40.0 / slowest
    assert np.all(np.abs(tr.active[settled] - (1.0 - nu1 * mean)) <= 1e-12)
    norm = np.linalg.norm(m * dt, 1)
    if norm <= 1e4:  # past this SciPy's squarings of exp(M dt) drift more than ours
        ref = scipy_expm(m * dt)
        assert np.max(np.abs(matrix_exponential(m * dt) - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0)


class TestIntegrate:
    def test_constant_rate_matches_matrix_exponential(self):
        n, beta = 10, beta_for(10)
        h = 0.01 / (LAM1 + beta)
        steps = int(0.5 / h)
        grid = TimeGrid(0.0, h, steps)
        b0 = equilibrium_state(n, beta, LAM0)
        tr = integrate(n, beta, Constant(LAM1), b0, grid)
        ref = step_response(n, beta, LAM0, LAM1, grid)
        assert np.max(np.abs(tr.active - ref.active)) < 1e-8
        assert np.max(np.abs(tr.rate - ref.rate)) < 1e-6

    def test_step_size_guard(self):
        n, beta = 2, 100.0
        b0 = equilibrium_state(n, beta, 10.0)
        with pytest.raises(ValueError, match="step"):
            integrate(n, beta, Constant(10.0), b0, TimeGrid(0.0, 0.01, 10))

    def test_rejects_mismatched_state(self):
        b0 = equilibrium_state(3, 50.0, 10.0)
        with pytest.raises(ValueError, match="order"):
            integrate(5, 75.0, Constant(10.0), b0, TimeGrid(0.0, 1e-4, 10))

    def test_rejects_unnormalized_state(self):
        bad = ChainState(np.array([1.0, 2.0, 0.5]))
        with pytest.raises(ValueError, match="occupation"):
            integrate(1, 25.0, Constant(5.0), bad, TimeGrid(0.0, 1e-4, 10))

    def test_conservation_drift(self):
        # the occupation sum is a left null vector of the generator, so the
        # stages annihilate it exactly and only roundoff accumulates
        n, beta = 4, 62.5
        sig = Cosine(base=50.0, amplitude=45.0, frequency=10.0)
        h = 0.1 / (95.0 + beta) / 2
        grid = TimeGrid(0.0, h, 20001)
        b0 = equilibrium_state(n, beta, sig.rate(0.0))
        assert conserved_functional(b0, beta) == pytest.approx(1.0, abs=1e-14)
        tr, b_end = integrate(n, beta, sig, b0, grid, return_final_state=True)
        assert abs(conserved_functional(b_end, beta) - 1.0) < 1e-12
        assert np.all(tr.active >= 0.0) and np.all(tr.active <= 1.0)

    def test_periodic_input_settles(self):
        n, beta = 4, 62.5
        sig = Cosine(base=50.0, amplitude=45.0, frequency=10.0)
        h = 1e-4
        per_period = int(round(0.1 / h))
        grid = TimeGrid(0.0, h, 30 * per_period + 1)
        b0 = equilibrium_state(n, beta, 50.0)
        tr = integrate(n, beta, sig, b0, grid)
        last = tr.rate[-per_period - 1 :]
        prev = tr.rate[-2 * per_period - 1 : -per_period]
        assert last.shape == prev.shape
        assert np.max(np.abs(last - prev)) < 1e-7

    @pytest.mark.parametrize("make_sig", [
        lambda grid: Cosine(base=50.0, amplitude=45.0, frequency=10.0),
        lambda grid: Step(LAM0, LAM1, t_switch=0.013),
        # sampled on the integration grid itself: no rate is read past t_end
        lambda grid: Sampled(grid, np.random.default_rng(3).uniform(5.0, 95.0, grid.n)),
    ], ids=["cosine", "step", "sampled-on-grid"])
    def test_rate_arrays_match_per_step_rates(self, make_sig):
        # the stepper reads the input rate from arrays made before the loop;
        # reading it one scalar call per stage must give the same bits
        n, beta = 6, beta_for(6)
        grid = TimeGrid(0.0, 0.1 / (95.0 + beta) / 2, 2001)
        sig = make_sig(grid)
        b0 = equilibrium_state(n, beta, sig.rate(0.0))
        tr, b_end = integrate(n, beta, sig, b0, grid, return_final_state=True)

        m_base, h = build_generator(n, beta, 0.0), grid.dt
        k_col = np.zeros(n + 2)
        k_col[0], k_col[-1] = beta, -1.0

        def deriv(t, b):
            return m_base @ b + (sig.rate(t) * b[-1]) * k_col

        b, t = b0.values.copy(), grid.times()
        active, rate = np.empty(grid.n), np.empty(grid.n)
        for i in range(grid.n):
            active[i], rate[i] = b[-1], sig.rate(t[i]) * b[-1]
            if i == grid.n - 1:
                break
            k1 = deriv(t[i], b)
            k2 = deriv(t[i] + 0.5 * h, b + 0.5 * h * k1)
            k3 = deriv(t[i] + 0.5 * h, b + 0.5 * h * k2)
            k4 = deriv(t[i] + h, b + h * k3)
            b = b + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.array_equal(tr.active, active) and np.array_equal(tr.rate, rate)
        assert np.array_equal(b_end.values, b)
