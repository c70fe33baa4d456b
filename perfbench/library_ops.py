"""The route_crosscheck workload: library routes paired the way the acceptance gate pairs them.

Run as ``python perfbench/library_ops.py PARAMS.json OUT.npz`` with the
package on ``PYTHONPATH``.  Both routes of every pair run here, inside the
timed process; the comparison happens later, in run.py.
Every call goes through its module attribute (``dde.integrate_ppd``, not a
name bound at import) so the traced run can wrap it.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from workloads import input_rate


def run(p: dict) -> dict[str, np.ndarray]:
    from deadtime import analytic_ppd, core, dde, gamma_chain, mc_sim, spectral
    from deadtime.core import Constant, Cosine, FixedDeadTime, GammaDeadTime, Step, TimeGrid

    d = p["d"]
    lam0, lam1 = input_rate(p["nu0"], d), input_rate(p["nu1"], d)
    step = Step(lam0, lam1, 0.0)
    out: dict[str, np.ndarray] = {}

    def both(trace) -> np.ndarray:
        return np.concatenate([trace.active, trace.rate])

    # fixed window: delay integrator against the closed form (C02)
    grid = TimeGrid(0.0, d / 1024, 1024 * 12 + 1)
    out["ppd_dde"] = both(dde.integrate_ppd(step, d, None, grid))
    out["ppd_closed"] = both(analytic_ppd.step_response(lam0, lam1, d, grid))

    # gamma windows: distributed-delay integrator against the chain (C09)
    for shape in (10, 50):
        law = GammaDeadTime(shape, (shape + 1) / d)
        dt = law.quantile(1.0 - 1e-12) / 1024.0
        grid = TimeGrid(0.0, dt, int(np.floor(1.2 / dt)) + 1)
        out[f"pprd{shape}_dde"] = both(dde.integrate_pprd(step, law, None, grid))
        out[f"pprd{shape}_chain"] = both(gamma_chain.step_response(shape, law.rate, lam0, lam1, grid))

    # RK4 chain stepping against the matrix-exponential chain (C08)
    shape, beta = 10, 11 / d
    grid = TimeGrid(0.0, 3e-5, p["rk4_steps"] + 1)
    b0 = gamma_chain.equilibrium_state(shape, beta, lam0)
    out["rk4"] = both(gamma_chain.integrate(shape, beta, step, b0, grid))
    out["rk4_chain"] = both(gamma_chain.step_response(shape, beta, lam0, lam1, grid))

    # superposition from a history against the integrator from the same history
    history = core.equilibrium_history(lam0, d)
    n = p["history_points"]
    coarse = TimeGrid(0.0, d / 64, n)
    fine = TimeGrid(0.0, d / 1024, (n - 1) * 16 + 1)
    out["history"] = analytic_ppd.solve_with_history(lam1, d, history, coarse).active
    out["history_dde"] = dde.integrate_ppd(Constant(lam1), d, history, fine).active[::16]

    # generative sampler against the closed form (C03)
    bw, n_bins = 1e-3, 360
    cfg = mc_sim.SimConfig(
        components=p["generative_components"],
        seed=p["generative_seed"],
        t_span=(-bw, n_bins * bw),
        bin_width=bw,
        lambda_max=max(lam0, lam1),
    )
    est = mc_sim.simulate_generative(step, FixedDeadTime(d), cfg)
    out["gen_rate"] = est.rate_hat[1:]
    out["gen_se"] = est.rate_se[1:]
    out["gen_ref"] = analytic_ppd.step_response(lam0, lam1, d, TimeGrid(bw / 2, bw, n_bins)).rate

    # continued fraction against the dense harmonic solve (C05)
    lam_c = input_rate(p["nu_drive"], d)
    eps = 0.9 * lam_c
    cf, dense = [], []
    for f in p["cf_frequencies"]:
        omega = 2.0 * np.pi * f
        alpha = spectral.cosine_continued_fraction(lam_c, eps, FixedDeadTime(d), omega)
        drive = core.signal_spectrum(Cosine(lam_c, eps, f), omega, 16)
        system = spectral.HarmonicSystem(omega, 16, FixedDeadTime(d), drive)
        solved = spectral.solve_active_spectrum(system)
        cf += [alpha.coefficient(k) for k in range(-8, 9)]
        dense += [solved.coefficient(k) for k in range(-8, 9)]
    out["cf_alpha"] = np.array(cf)
    out["dense_alpha"] = np.array(dense)
    return out


def main(params_path: str, out_path: str) -> int:
    with open(params_path, encoding="ascii") as fh:
        params = json.load(fh)
    np.savez(out_path, **run(params))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: library_ops.py PARAMS.json OUT.npz")
    sys.exit(main(sys.argv[1], sys.argv[2]))
