"""End-to-end acceptance gate.

Thirteen numbered criteria, one test each, so a verbose run prints exactly
one pass/fail line per criterion.  Every check pits two independent routes
against each other (closed form vs integrator, spectral vs time domain,
deterministic vs Monte Carlo) with the tolerance pinned next to the test.
Statistical checks run at fixed seeds; their tolerances are standard-error
multiples, not fitted numbers.
"""

import os
import time

import numpy as np
import pytest

from deadtime import analytic_ppd, cli, gamma_chain
from deadtime.core import (
    Constant,
    Cosine,
    FixedDeadTime,
    GammaDeadTime,
    History,
    Step,
    TimeGrid,
    signal_spectrum,
)
from deadtime.dde import integrate_ppd, integrate_pprd
from deadtime.mc_sim import SimConfig, hazard_pprd, simulate_generative, simulate_rejection
from deadtime.renewal_map import (
    RenewalSpec,
    convolution_residual,
    dead_time_from_interval,
    lognormal_minimal_rate,
    minimal_lambda,
)
from deadtime.spectral import (
    HarmonicSystem,
    cosine_continued_fraction,
    infer_input_spectrum,
    output_spectrum,
    solve_active_spectrum,
)

# Reference dead-time scenario shared by several criteria: a 80 ms window
# driven around 10 Hz output, where distortion is strong (lambda*d = 4).
D_REF = 0.08
LAM0_REF = 50.0  # input rate whose equilibrium output is 10 Hz at d = 0.08
EPS_REF = 45.0  # 90 % modulation depth
SWEEP_HZ = (4.0, 6.25, 10.0, 12.5, 17.5)

# Step scenarios: output-rate targets 5 Hz <-> 10 Hz at three window lengths.
STEP_WINDOWS = (0.02, 0.05, 0.08)


def input_rate_for(nu: float, dead: float) -> float:
    """Input rate whose equilibrium output rate is ``nu`` under window ``dead``."""
    return 1.0 / (1.0 / nu - dead)


def spectral_steady_state(lam0, eps, dead, freq, order=16):
    omega = 2.0 * np.pi * freq
    drive = signal_spectrum(Cosine(lam0, eps, freq), omega, order)
    system = HarmonicSystem(omega, order, FixedDeadTime(dead), drive)
    alpha = solve_active_spectrum(system)
    beta = output_spectrum(system, alpha)
    return alpha, beta


def test_criterion_01_stationary_rate_identity():
    """Monte Carlo stationary rate matches lam/(1 + lam*d) within 3 SE."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260819)
    lams = rng.uniform(1.0, 10.0, 20)
    deads = rng.uniform(0.005, 0.12, 20)
    worst = 0.0
    for i, (lam, dead) in enumerate(zip(lams, deads)):
        cfg = SimConfig(
            components=100_000,
            seed=911_000 + i,
            t_span=(0.0, 10.0),
            bin_width=10.0,
            lambda_max=lam,
        )
        est = simulate_generative(Constant(lam), FixedDeadTime(dead), cfg)
        expected = lam / (1.0 + lam * dead)
        z = abs(est.rate_hat[0] - expected) / est.rate_se[0]
        worst = max(worst, z)
        assert z <= 3.0, (
            f"pair {i}: lam={lam:.4f} d={dead:.4f} "
            f"rate_hat={est.rate_hat[0]:.6f} expected={expected:.6f} z={z:.2f}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s budget"
    print(f"[C01] 20 stationary pairs, worst |z| = {worst:.2f} (limit 3), {elapsed:.1f}s")


def test_criterion_02_step_response_exactness():
    """Closed-form step response and delay integrator agree to 1e-6 sup-norm."""
    start = time.perf_counter()
    worst = 0.0
    for dead in STEP_WINDOWS:
        for nu_from, nu_to in ((5.0, 10.0), (10.0, 5.0)):
            lam0 = input_rate_for(nu_from, dead)
            lam1 = input_rate_for(nu_to, dead)
            dt = dead / 1024.0
            grid = TimeGrid(0.0, dt, int(round(0.4 / dt)) + 1)
            exact = analytic_ppd.step_response(lam0, lam1, dead, grid)
            numeric = integrate_ppd(Step(lam0, lam1, 0.0), dead, None, grid)
            sup = max(
                float(np.max(np.abs(exact.active - numeric.active))),
                float(np.max(np.abs(exact.rate - numeric.rate))),
            )
            worst = max(worst, sup)
            assert sup <= 1e-6, f"d={dead} {nu_from}->{nu_to} Hz: sup diff {sup:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s budget"
    print(f"[C02] six step scenarios, worst sup diff = {worst:.2e} (limit 1e-6), {elapsed:.1f}s")


def test_criterion_03_step_response_vs_monte_carlo():
    """Ensemble of 10^6 components reproduces the step transient bin by bin."""
    start = time.perf_counter()
    dead = 0.05
    lam0 = input_rate_for(5.0, dead)
    lam1 = input_rate_for(10.0, dead)

    # Analytic endpoints first: equilibrium active fractions at both rates.
    dt = dead / 256.0
    grid = TimeGrid(0.0, dt, int(round(2.0 / dt)) + 1)
    exact = analytic_ppd.step_response(lam0, lam1, dead, grid)
    a_start = 1.0 / (1.0 + lam0 * dead)
    a_final = 1.0 / (1.0 + lam1 * dead)
    assert abs(exact.active[0] - a_start) <= 1e-10, f"A(0) off by {abs(exact.active[0] - a_start):.2e}"
    assert abs(exact.active[-1] - a_final) <= 1e-6, f"A(2s) off by {abs(exact.active[-1] - a_final):.2e}"

    # Monte Carlo: start one bin before the switch so the ensemble is drawn
    # from the pre-switch equilibrium, then drop that lead bin.
    bw = 1e-3
    n_bins = 360
    cfg = SimConfig(
        components=1_000_000,
        seed=424_242,
        t_span=(-bw, n_bins * bw),
        bin_width=bw,
        lambda_max=max(lam0, lam1),
    )
    est = simulate_generative(Step(lam0, lam1, 0.0), FixedDeadTime(dead), cfg)
    centers = TimeGrid(bw / 2.0, bw, n_bins)
    ref = analytic_ppd.step_response(lam0, lam1, dead, centers)
    z = (est.rate_hat[1:] - ref.rate) / est.rate_se[1:]
    frac_ok = float(np.mean(np.abs(z) <= 4.0))
    elapsed = time.perf_counter() - start
    assert frac_ok >= 0.99, f"only {frac_ok:.3f} of bins within 4 SE"
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 120s budget"
    print(
        f"[C03] {frac_ok * 100:.1f}% of {n_bins} bins within 4 SE "
        f"(worst |z| = {np.max(np.abs(z)):.2f}), {elapsed:.1f}s"
    )


def test_criterion_04_spectral_vs_time_domain():
    """The harmonic steady state survives 20 periods of delay integration."""
    start = time.perf_counter()
    worst = 0.0
    for freq in SWEEP_HZ:
        period = 1.0 / freq
        alpha, beta = spectral_steady_state(LAM0_REF, EPS_REF, D_REF, freq)
        history = History(
            active=lambda t: np.real(alpha.evaluate(t)),
            rate=lambda t: np.real(beta.evaluate(t)),
        )
        dt = D_REF / 1024.0
        grid = TimeGrid(0.0, dt, int(round(20.0 * period / dt)) + 1)
        trace = integrate_ppd(Cosine(LAM0_REF, EPS_REF, freq), D_REF, history, grid)
        t = trace.grid.times()
        last = t >= 19.0 * period - 1e-12
        nu_ref = np.real(beta.evaluate(t[last]))
        a_ref = np.real(alpha.evaluate(t[last]))
        rel_nu = np.linalg.norm(trace.rate[last] - nu_ref) / np.linalg.norm(nu_ref)
        rel_a = np.linalg.norm(trace.active[last] - a_ref) / np.linalg.norm(a_ref)
        worst = max(worst, rel_nu, rel_a)
        assert rel_nu <= 1e-5, f"f={freq}: rate rel L2 {rel_nu:.3e}"
        assert rel_a <= 1e-5, f"f={freq}: active rel L2 {rel_a:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s budget"
    print(f"[C04] five frequencies, worst rel L2 = {worst:.2e} (limit 1e-5), {elapsed:.1f}s")


def test_criterion_05_continued_fraction_vs_dense_solve():
    """Continued-fraction coefficients match the dense linear solve to 1e-10."""
    start = time.perf_counter()
    worst = 0.0
    for freq in SWEEP_HZ:
        omega = 2.0 * np.pi * freq
        alpha_dense, _ = spectral_steady_state(LAM0_REF, EPS_REF, D_REF, freq)
        alpha_cf = cosine_continued_fraction(LAM0_REF, EPS_REF, FixedDeadTime(D_REF), omega)
        for k in range(-8, 9):
            diff = abs(alpha_dense.coefficient(k) - alpha_cf.coefficient(k))
            worst = max(worst, diff)
            assert diff <= 1e-10, f"f={freq} k={k}: |diff| = {diff:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s budget"
    print(f"[C05] coefficients |k| <= 8 at 5 frequencies, worst diff = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_frequency_doubling_and_transparency():
    """Second harmonic dominates near half the window rate; f = 1/d is clean."""
    # Near 6.25 Hz the output picks up a second harmonic stronger than the
    # fundamental's distortion term.
    _, beta = spectral_steady_state(LAM0_REF, EPS_REF, D_REF, 6.25)
    b1 = abs(beta.coefficient(1))
    b2 = abs(beta.coefficient(2))
    assert b2 > b1, f"|beta2| = {b2:.4f} not above |beta1| = {b1:.4f} at 6.25 Hz"

    # At f = 1/d the modulation passes through undistorted: the active
    # fraction is flat, so every oscillating coefficient vanishes.
    alpha, _ = spectral_steady_state(LAM0_REF, EPS_REF, D_REF, 1.0 / D_REF)
    off = max(abs(alpha.coefficient(k)) for k in range(-alpha.order, alpha.order + 1) if k != 0)
    assert off <= 1e-10, f"max off-harmonic |alpha_k| = {off:.3e} at f = 1/d"
    print(f"[C06] |beta2|/|beta1| = {b2 / b1:.3f} at 6.25 Hz; transparency residual {off:.2e}")


def test_criterion_07_mean_rate_resonance():
    """The cycle-averaged output peaks just below f = 1/d and f = 2/d.

    The peak displacement shrinks as saturation grows; the 10 % band is
    asserted deep in saturation (lam0*d = 8).  At the reference drive the
    peaks sit a little further out, so only their existence below the
    characteristic frequencies is asserted there.
    """

    def mean_rate_peaks(lam0, eps):
        freqs = np.linspace(0.1, 40.0, 1600)
        b0 = np.empty_like(freqs)
        for i, freq in enumerate(freqs):
            omega = 2.0 * np.pi * freq
            alpha = cosine_continued_fraction(lam0, eps, FixedDeadTime(D_REF), omega)
            b0[i] = np.real((1.0 - alpha.coefficient(0)) / D_REF)
        interior = (b0[1:-1] > b0[:-2]) & (b0[1:-1] > b0[2:])
        return freqs[1:-1][interior]

    f_win = 1.0 / D_REF
    peaks = mean_rate_peaks(2.0 * LAM0_REF, 2.0 * EPS_REF)
    first = [f for f in peaks if 0.9 * f_win <= f <= f_win]
    second = [f for f in peaks if 1.8 * f_win <= f <= 2.0 * f_win]
    assert first, f"no mean-rate peak in [{0.9 * f_win}, {f_win}] Hz; peaks at {peaks}"
    assert second, f"no mean-rate peak in [{1.8 * f_win}, {2 * f_win}] Hz; peaks at {peaks}"

    ref_peaks = mean_rate_peaks(LAM0_REF, EPS_REF)
    ref_first = [f for f in ref_peaks if 0.85 * f_win <= f < f_win]
    ref_second = [f for f in ref_peaks if 1.7 * f_win <= f < 2.0 * f_win]
    assert ref_first and ref_second, f"reference-drive peaks missing: {ref_peaks}"
    print(
        f"[C07] peaks at {first[0]:.2f} / {second[0]:.2f} Hz in deep saturation "
        f"(1/d = {f_win} Hz); {ref_first[0]:.2f} / {ref_second[0]:.2f} Hz at the reference drive"
    )


def test_criterion_08_gamma_chain_routes_agree():
    """Matrix-exponential and RK4 chain routes coincide; the invariant holds."""
    n_stage = 10
    beta = 137.5
    lam0 = input_rate_for(5.0, D_REF)
    lam1 = input_rate_for(10.0, D_REF)
    dt = 3e-5
    steps = 100_000
    grid = TimeGrid(0.0, dt, steps + 1)

    exact = gamma_chain.step_response(n_stage, beta, lam0, lam1, grid)
    b0 = gamma_chain.equilibrium_state(n_stage, beta, lam0)
    invariant_in = gamma_chain.conserved_functional(b0, beta)
    numeric, final = gamma_chain.integrate(
        n_stage, beta, Step(lam0, lam1, 0.0), b0, grid, return_final_state=True
    )
    sup = max(
        float(np.max(np.abs(exact.active - numeric.active))),
        float(np.max(np.abs(exact.rate - numeric.rate))),
    )
    drift = abs(gamma_chain.conserved_functional(final, beta) - invariant_in)
    assert sup <= 1e-8, f"chain routes differ by {sup:.3e}"
    assert drift <= 1e-10, f"conserved functional drifted by {drift:.3e} over {steps} steps"

    # Stationary state of the chain reproduces the renewal closed form.
    eq = gamma_chain.equilibrium_state(n_stage, beta, lam1)
    nu_eq = lam1 * eq.values[-1]
    nu_closed = 1.0 / (1.0 / lam1 + (n_stage + 1) / beta)
    assert abs(nu_eq - nu_closed) <= 1e-12, f"equilibrium rate off by {abs(nu_eq - nu_closed):.2e}"
    print(
        f"[C08] sup diff = {sup:.2e} (limit 1e-8), drift = {drift:.2e} over {steps} steps, "
        f"equilibrium rate error = {abs(nu_eq - nu_closed):.2e}"
    )


def test_criterion_09_random_window_cross_validation():
    """Chain, distributed-delay integrator, and rejection sampler all agree."""
    start = time.perf_counter()
    lam0 = input_rate_for(5.0, D_REF)
    lam1 = input_rate_for(10.0, D_REF)
    bw = 5e-3
    n_bins = 120
    trials = 25
    for n_stage in (10, 50):
        law = GammaDeadTime(n_stage, (n_stage + 1) / D_REF)

        # Deterministic pair: renewal chain vs distributed-delay integrator.
        window = law.quantile(1.0 - 1e-12)
        dt = window / 1024.0
        grid = TimeGrid(0.0, dt, int(np.floor(1.2 / dt)) + 1)
        dde_trace = integrate_pprd(Step(lam0, lam1, 0.0), law, None, grid)
        chain = gamma_chain.step_response(n_stage, law.rate, lam0, lam1, grid)
        sup = max(
            float(np.max(np.abs(dde_trace.active - chain.active))),
            float(np.max(np.abs(dde_trace.rate - chain.rate))),
        )
        assert sup <= 1e-6, f"n={n_stage}: chain vs integrator sup diff {sup:.3e}"

        # Statistical pair: 25 rejection-sampled trials against the chain.
        def one_trial(t, stage=n_stage, lw=law):
            cfg = SimConfig(
                components=100_000,
                seed=77_000 + 100 * stage + t,
                t_span=(-bw, n_bins * bw),
                bin_width=bw,
                lambda_max=max(lam0, lam1),
            )
            est = simulate_rejection(Step(lam0, lam1, 0.0), lw, cfg)
            return est.rate_hat[1:]

        rates = np.array([one_trial(t) for t in range(trials)])
        mean = rates.mean(axis=0)
        se = rates.std(axis=0, ddof=1) / np.sqrt(trials)
        centers = TimeGrid(bw / 2.0, bw, n_bins)
        ref = gamma_chain.step_response(n_stage, law.rate, lam0, lam1, centers)
        z = np.abs(mean - ref.rate) / se
        assert np.max(z) <= 4.0, (
            f"n={n_stage}: bin at t={centers.times()[int(np.argmax(z))]:.3f}s "
            f"off by {np.max(z):.2f} SE"
        )
        print(f"[C09] n={n_stage}: sup diff = {sup:.2e}, worst MC |z| = {np.max(z):.2f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 300s budget"
    print(f"[C09] total {elapsed:.1f}s")


def test_criterion_10_hazard_reduces_to_sharp_window():
    """With a deterministic window the hazard is exactly lam(t) * theta(tau - d)."""
    law = FixedDeadTime(D_REF)
    tt, uu = np.meshgrid(np.linspace(0.0, 1.0, 21), np.linspace(0.0, 3.0 * D_REF, 49))
    worst = 0.0
    for sig in (Cosine(LAM0_REF, EPS_REF, 6.25), Step(8.0, 21.0, 0.4), Constant(12.5)):
        h = hazard_pprd(sig, law, tt.ravel(), uu.ravel())
        ref = sig.rate(tt.ravel()) * (uu.ravel() >= D_REF)
        worst = max(worst, float(np.max(np.abs(h - ref))))
    assert worst <= 1e-12, f"hazard deviates from sharp window by {worst:.3e}"
    print(f"[C10] sharp-window hazard residual = {worst:.2e} on 21x49 grid, three signals")


def test_criterion_11_renewal_representability():
    """Interval descriptions map back to the window laws that generate them."""
    # Gamma interval with three stages: the window law drops one stage.
    beta = 25.0
    rep = dead_time_from_interval(RenewalSpec.from_gamma(3, beta), beta)
    assert rep.input_rate == beta
    target = GammaDeadTime(2, beta)
    nodes = rep.law.x
    diff = float(np.max(np.abs(rep.law.density(nodes) - target.density(nodes))))
    assert diff <= 1e-10, f"recovered window density off by {diff:.3e}"

    # Lognormal interval: smallest admissible input rate has a closed form.
    mu, sigma, delta = 0.0, 0.8, 0.1
    bound = minimal_lambda(RenewalSpec.from_lognormal(mu, sigma, delta))
    closed = lognormal_minimal_rate(mu, sigma, delta)
    rel = abs(bound - closed) / closed
    assert rel <= 1e-6, f"minimal rate off by {rel:.3e} relative"

    # Both constructions satisfy the defining convolution identity.
    res_gamma = convolution_residual(rep, RenewalSpec.from_gamma(3, beta))
    rep_ln = dead_time_from_interval(RenewalSpec.from_lognormal(mu, sigma, delta), 1.05 * closed)
    res_ln = convolution_residual(rep_ln, RenewalSpec.from_lognormal(mu, sigma, delta))
    assert res_gamma <= 1e-6, f"gamma convolution residual {res_gamma:.3e}"
    assert res_ln <= 1e-6, f"lognormal convolution residual {res_ln:.3e}"
    print(
        f"[C11] density diff = {diff:.2e}, minimal-rate rel err = {rel:.2e}, "
        f"convolution residuals = {res_gamma:.2e} / {res_ln:.2e}"
    )


def test_criterion_12_drive_recovery_round_trip():
    """Forward solve then inversion returns the drive coefficients to 1e-8."""
    worst = 0.0
    for freq in SWEEP_HZ:
        omega = 2.0 * np.pi * freq
        drive = signal_spectrum(Cosine(LAM0_REF, EPS_REF, freq), omega, 16)
        _, beta = spectral_steady_state(LAM0_REF, EPS_REF, D_REF, freq)
        recovered, cond = infer_input_spectrum(beta, FixedDeadTime(D_REF))
        for k in range(-16, 17):
            diff = abs(recovered.coefficient(k) - drive.coefficient(k))
            worst = max(worst, diff)
        assert worst <= 1e-8, f"f={freq}: round-trip error {worst:.3e} (cond {cond:.1f})"
    print(f"[C12] drive round trip over 5 frequencies, worst error = {worst:.2e}")


def test_criterion_13_simulation_determinism(tmp_path, monkeypatch):
    """Identical seeds give byte-identical CSVs regardless of thread count."""

    def run(args, threads):
        monkeypatch.setenv("DEADTIME_THREADS", str(threads))
        out = tmp_path / f"run-{threads}-{len(list(tmp_path.iterdir()))}.csv"
        code = cli.main([*args, "--out", str(out)])
        assert code == 0
        return out.read_bytes()

    step_args = [
        "step", "--nu0", "5", "--nu1", "10", "--d", "0.05",
        "--t-max", "0.2", "--dt", "1e-3",
        "--mc", "60000", "--seed", "4242", "--bin-width", "2e-3",
    ]
    a = run(step_args, 1)
    b = run(step_args, 5)
    c = run(step_args, 5)
    assert a == b == c, "generative sampler output depends on thread count or rerun"

    pprd_args = [
        "pprd-step", "--nu0", "5", "--nu1", "10", "--mean", "0.08", "--shape", "10",
        "--t-max", "0.2", "--dt", "1e-3",
        "--mc", "20000", "--trials", "4", "--seed", "777",
        "--bin-width", "5e-3",
    ]
    d = run(pprd_args, 1)
    e = run(pprd_args, 6)
    assert d == e, "rejection sampler output depends on thread count"
    monkeypatch.delenv("DEADTIME_THREADS")
    print(f"[C13] byte-identical across thread counts: step {len(a)} B, pprd-step {len(d)} B")


if __name__ == "__main__":
    raise SystemExit(pytest.main([os.path.abspath(__file__), "-v"]))
