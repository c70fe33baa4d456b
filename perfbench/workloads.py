"""What each workload runs, and how its outputs are checked.

A plan turns a workload name, a seed and a size into a list of operations.
The seed picks the Monte Carlo seeds and the exact rates and frequencies
inside fixed ranges; sizes (components, trials, sweep lengths, grid lengths)
come from ``SIZES`` alone, so two seeds cost the same work.

Every CLI operation is ``python -m deadtime.cli <argv>`` with paths relative
to the operation's output directory.  The library workload is one process
running ``library_ops.py``.  Checks read the files the operations wrote and
compare them with an independent route; each returns ``Check`` records whose
tolerances are fixed here, before anything is measured.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

THREADS = 2  # passed as --threads: the core count of the 2-core machine the bounds were set on
DEAD = 0.08  # mean dead time of the step and sweep scenarios (s)
GAMMA_LAW = (10, 137.5)  # gamma window of the sweep's --law run: mean 11/137.5 = DEAD
BIN = 0.005  # pprd-step bin width (s); 120 bins over 0.6 s

SIZES = {
    "full": {
        "mc_components": 10_000,  # per trial
        "mc_trials": 4,
        "sweep_steps": 150,  # frequencies per periodic run
        "rk4_steps": 20_000,
        "generative_components": 1_000_000,
        "history_points": 201,
        "cf_count": 5,
    },
    "tiny": {
        "mc_components": 500,
        "mc_trials": 2,
        "sweep_steps": 6,
        "rk4_steps": 2_000,
        "generative_components": 20_000,
        "history_points": 9,
        "cf_count": 2,
    },
}


@dataclass(frozen=True)
class Op:
    """One operation as a user runs it.

    ``argv`` is the CLI argument list, or ``None`` for the library process.
    ``outputs`` lists the files the operation must write.  ``units`` is the
    number of operations it counts for in ``attempted``: one per command,
    one per route pair for the library process.
    """

    name: str
    argv: list[str] | None
    outputs: list[str]
    units: int = 1


@dataclass(frozen=True)
class Check:
    op: int
    label: str
    error: float
    tol: float

    @property
    def ok(self) -> bool:
        return math.isfinite(self.error) and self.error <= self.tol


@dataclass
class Plan:
    workload: str
    seed: int
    size: str
    params: dict
    ops: list[Op] = field(default_factory=list)

    def check(self, outdir: str) -> list[Check]:
        return CHECKS[self.workload](self, outdir)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def input_rate(nu: float, mean_dead: float) -> float:
    """Input rate whose equilibrium output rate is ``nu``."""
    return 1.0 / (1.0 / nu - mean_dead)


def freq_tag(f: float) -> str:
    """File-name tag ``periodic`` gives a frequency."""
    return f"{float(f):g}"


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


def _plan_mc(plan: Plan, rng: random.Random, sz: dict) -> None:
    p = plan.params
    p["nu0"] = rng.uniform(4.8, 5.2)
    p["nu1"] = rng.uniform(9.8, 10.2)
    p["mc_seeds"] = {}
    for shape in (10, 50):
        seed = rng.randrange(2**31)
        p["mc_seeds"][shape] = seed
        out = f"pprd-shape{shape}.csv"
        argv = [
            "pprd-step", "--mean", repr(DEAD), "--shape", str(shape),
            "--nu0", repr(p["nu0"]), "--nu1", repr(p["nu1"]),
            "--t-max", "0.6", "--dt", repr(BIN), "--bin-width", repr(BIN),
            "--trials", str(sz["mc_trials"]), "--mc", str(sz["mc_components"]),
            "--seed", str(seed), "--threads", str(THREADS), "--out", out,
        ]
        plan.ops.append(Op(f"pprd-step shape {shape}", argv, [out]))


def sweep_frequencies(params: dict) -> np.ndarray:
    """The frequencies ``periodic --f-sweep lo:hi:steps`` solves."""
    return np.linspace(params["f_lo"], params["f_hi"], params["steps"])


def _periodic_outputs(prefix: str, freqs) -> list[str]:
    out = []
    for f in freqs:
        tag = freq_tag(f)
        out += [f"{prefix}-trace-f{tag}.csv", f"{prefix}-beta-f{tag}.csv"]
    return out + [f"{prefix}-sweep.csv"]


def _plan_periodic(plan: Plan, rng: random.Random, sz: dict) -> None:
    p = plan.params
    p["nu0"] = rng.uniform(9.8, 10.2)
    p["f_lo"] = rng.uniform(1.0, 2.0)
    p["f_hi"] = rng.uniform(38.0, 42.0)
    p["steps"] = sz["sweep_steps"]
    p["mod_depth"] = 0.9
    p["infer_index"] = rng.randrange(p["steps"])
    freqs = sweep_frequencies(p)
    sweep = f"{p['f_lo']!r}:{p['f_hi']!r}:{p['steps']}"
    common = [
        "--nu0", repr(p["nu0"]), "--mod-depth", repr(p["mod_depth"]),
        "--f-sweep", sweep, "--threads", str(THREADS),
    ]
    n, beta = GAMMA_LAW
    for prefix, law in (("fixed", ["--d", repr(DEAD)]), ("gamma", ["--law", f"gamma:{n},{beta!r}"])):
        argv = ["periodic", *law, *common, "--out-prefix", prefix]
        plan.ops.append(Op(f"periodic {prefix}", argv, _periodic_outputs(prefix, freqs)))
    f_inf = float(freqs[p["infer_index"]])
    argv = [
        "infer-input", "--beta-csv", f"fixed-beta-f{freq_tag(f_inf)}.csv",
        "--d", repr(DEAD), "--f", repr(f_inf), "--out", "inferred.csv",
    ]
    plan.ops.append(Op("infer-input", argv, ["inferred.csv"]))
    produced = [path for op in plan.ops for path in op.outputs]
    plan.ops.append(Op("validate", ["validate", *produced], []))


def _plan_renewal(plan: Plan, rng: random.Random, sz: dict) -> None:
    p = plan.params
    # The lognormal law always tabulates to 524,289 nodes; these ranges keep
    # the q_k quadrature at its 4 x nodes floor and the solve at the same
    # truncation doublings, so the seed moves no cost.
    p["sigma"] = rng.uniform(0.75, 0.85)
    p["delta"] = rng.uniform(0.09, 0.11)
    p["nu0"] = rng.uniform(4.5, 5.5)
    p["f"] = rng.uniform(40.0, 60.0)
    p["hazard_rate"] = rng.uniform(10.0, 20.0)
    process = f"lognormal:0,{p['sigma']!r},{p['delta']!r}"
    plan.ops.append(Op("represent", ["represent", "--process", process, "--out", "law.csv"], ["law.csv"]))
    periodic_out = _periodic_outputs("table", [p["f"]])
    argv = [
        "periodic", "--law", "table:law.csv", "--nu0", repr(p["nu0"]),
        "--mod-depth", "0.5", "--f", repr(p["f"]), "--harmonics", "4",
        "--samples", "64", "--threads", str(THREADS), "--out-prefix", "table",
    ]
    plan.ops.append(Op("periodic table", argv, periodic_out))
    argv = [
        "hazard", "--law", "table:law.csv", "--lambda0", repr(p["hazard_rate"]),
        "--tau-max", "0.5", "--out", "hazard.csv",
    ]
    plan.ops.append(Op("hazard", argv, ["hazard.csv"]))
    plan.ops.append(Op("validate", ["validate", "law.csv", "hazard.csv", *periodic_out], []))


ROUTE_PAIRS = (
    "ppd_dde_vs_closed_form",
    "pprd10_dde_vs_chain",
    "pprd50_dde_vs_chain",
    "rk4_vs_chain",
    "history_vs_dde",
    "generative_vs_closed_form",
    "continued_fraction_vs_dense",
)


def _plan_routes(plan: Plan, rng: random.Random, sz: dict) -> None:
    p = plan.params
    p["d"] = DEAD
    p["nu0"] = rng.uniform(4.8, 5.2)
    p["nu1"] = rng.uniform(9.8, 10.2)
    p["nu_drive"] = rng.uniform(9.8, 10.2)
    p["generative_seed"] = rng.randrange(2**31)
    p["cf_frequencies"] = sorted(rng.uniform(3.0, 20.0) for _ in range(sz["cf_count"]))
    for key in ("rk4_steps", "generative_components", "history_points"):
        p[key] = sz[key]
    plan.ops.append(Op("route_crosscheck", None, ["routes.npz"], units=len(ROUTE_PAIRS)))


PLANNERS = {
    "mc_random_window": _plan_mc,
    "periodic_sweep": _plan_periodic,
    "renewal_table": _plan_renewal,
    "route_crosscheck": _plan_routes,
}


def make_plan(workload: str, seed: int, size: str = "full") -> Plan:
    if workload not in PLANNERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(PLANNERS)}")
    plan = Plan(workload, seed, size, {})
    PLANNERS[workload](plan, _rng(workload, seed), SIZES[size])
    return plan


# ---------------------------------------------------------------------------
# checks (outside the timed region)
# ---------------------------------------------------------------------------


def _load_rows(path: str, skip: int) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)


def _guarded(op: int, label: str, tol: float, fn) -> Check:
    """Run one comparison; a missing or unreadable output fails it."""
    try:
        return Check(op, label, float(fn()), tol)
    except (OSError, ValueError, KeyError, IndexError) as err:
        return Check(op, f"{label}: {type(err).__name__}: {err}", math.inf, tol)


def _check_mc(plan: Plan, outdir: str) -> list[Check]:
    from deadtime import gamma_chain
    from deadtime.core import TimeGrid

    p, sz = plan.params, SIZES[plan.size]
    lam0, lam1 = input_rate(p["nu0"], DEAD), input_rate(p["nu1"], DEAD)
    components = sz["mc_components"] * sz["mc_trials"]
    centers = TimeGrid(BIN / 2.0, BIN, 120)
    checks = []
    for i, shape in enumerate((10, 50)):
        ref = gamma_chain.step_response(shape, (shape + 1) / DEAD, lam0, lam1, centers)

        def worst_z(shape=shape, ref=ref):
            rows = _load_rows(os.path.join(outdir, f"pprd-shape{shape}.csv"), 1)
            if rows.shape != (120, 8):
                raise ValueError(f"expected 120 x 8 rows, got {rows.shape}")
            nu_hat, count = rows[:, 3], rows[:, 7]
            # Poisson SE of the pooled count in each bin
            se = np.sqrt(np.maximum(count, 1.0)) / (components * BIN)
            return np.max(np.abs(nu_hat - ref.rate) / se)

        checks.append(_guarded(i, f"shape {shape}: max |z| of MC rate vs gamma chain", 5.0, worst_z))
    return checks


def _beta_rows(path: str) -> dict[int, complex]:
    rows = _load_rows(path, 0)
    return {int(k): complex(re, im) for k, re, im in rows}


def _check_periodic(plan: Plan, outdir: str) -> list[Check]:
    from deadtime.core import FixedDeadTime, GammaDeadTime
    from deadtime.spectral import cosine_continued_fraction

    p = plan.params
    lam0 = input_rate(p["nu0"], DEAD)
    eps = p["mod_depth"] * lam0
    freqs = sweep_frequencies(p)
    drive = np.array([eps / 2.0, lam0, eps / 2.0])
    checks = []
    for i, (prefix, law) in enumerate(
        (("fixed", FixedDeadTime(DEAD)), ("gamma", GammaDeadTime(*GAMMA_LAW)))
    ):
        tags = {freq_tag(f) for f in freqs}
        checks.append(Check(i, f"{prefix}: distinct file names per frequency",
                            float(len(freqs) - len(tags)), 0.0))

        def worst_beta(prefix=prefix, law=law):
            worst = 0.0
            for f in freqs:
                got = _beta_rows(os.path.join(outdir, f"{prefix}-beta-f{freq_tag(f)}.csv"))
                alpha = cosine_continued_fraction(lam0, eps, law, 2.0 * math.pi * f)
                beta = np.convolve(drive, alpha.coeffs)
                order = (beta.size - 1) // 2
                for k in set(got) | set(range(-order, order + 1)):
                    ref = beta[k + order] if abs(k) <= order else 0.0
                    worst = max(worst, abs(got.get(k, 0.0) - ref))
            # the continued fraction's alpha tolerance (1e-10) carried
            # through the convolution with the drive
            return worst / (lam0 + eps)

        checks.append(_guarded(i, f"{prefix}: beta vs continued fraction", 1e-10, worst_beta))

    def drive_error():
        got = _beta_rows(os.path.join(outdir, "inferred.csv"))
        want = {0: lam0, 1: eps / 2.0, -1: eps / 2.0}
        return max(abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in set(got) | set(want))

    checks.append(_guarded(2, "infer-input recovers the drive", 1e-8, drive_error))
    return checks


def _check_renewal(plan: Plan, outdir: str) -> list[Check]:
    from deadtime.core import read_law_csv
    from deadtime.renewal_map import (
        PprdRepresentation,
        RenewalSpec,
        convolution_residual,
        lognormal_minimal_rate,
    )

    p = plan.params

    def residual():
        law = read_law_csv(os.path.join(outdir, "law.csv"))
        rate = lognormal_minimal_rate(0.0, p["sigma"], p["delta"])
        spec = RenewalSpec.from_lognormal(0.0, p["sigma"], p["delta"])
        return convolution_residual(PprdRepresentation(rate, law), spec)

    def hazard_range():
        rows = _load_rows(os.path.join(outdir, "hazard.csv"), 1)
        tau, cols = rows[:, 0], rows[:, 1:]
        if rows.shape[1] != 3 or np.max(np.abs(tau - np.linspace(0.0, 0.5, tau.size))) > 1e-12:
            raise ValueError("hazard table has the wrong shape or tau grid")
        # h/lambda0 and rho/max(rho) both lie in [0, 1]; rho peaks at 1
        return max(float(np.max(-cols)), float(np.max(cols - 1.0)),
                   abs(float(np.max(cols[:, 1])) - 1.0), 0.0)

    return [
        _guarded(0, "law.csv convolution residual", 1e-6, residual),
        _guarded(2, "hazard columns in [0, 1]", 1e-9, hazard_range),
    ]


def _check_routes(plan: Plan, outdir: str) -> list[Check]:
    try:
        with np.load(os.path.join(outdir, "routes.npz")) as npz:
            r = dict(npz)
    except (OSError, ValueError) as err:
        return [Check(0, f"{pair}: {err}", math.inf, 0.0) for pair in ROUTE_PAIRS]

    def sup(a, b):
        return lambda: float(np.max(np.abs(r[a] - r[b])))

    def generative():
        z = (r["gen_rate"] - r["gen_ref"]) / r["gen_se"]
        return float(np.mean(np.abs(z) > 4.0))

    tols = {  # the acceptance gate's own tolerances, criterion by criterion
        "ppd_dde_vs_closed_form": (1e-6, sup("ppd_dde", "ppd_closed")),  # C02
        "pprd10_dde_vs_chain": (1e-6, sup("pprd10_dde", "pprd10_chain")),  # C09
        "pprd50_dde_vs_chain": (1e-6, sup("pprd50_dde", "pprd50_chain")),  # C09
        "rk4_vs_chain": (1e-8, sup("rk4", "rk4_chain")),  # C08
        "history_vs_dde": (1e-8, sup("history", "history_dde")),  # analytic_ppd tests
        "generative_vs_closed_form": (0.01, generative),  # C03: 99 % of bins within 4 SE
        "continued_fraction_vs_dense": (1e-10, sup("cf_alpha", "dense_alpha")),  # C05
    }
    return [_guarded(0, pair, tol, fn) for pair, (tol, fn) in tols.items()]


CHECKS = {
    "mc_random_window": _check_mc,
    "periodic_sweep": _check_periodic,
    "renewal_table": _check_renewal,
    "route_crosscheck": _check_routes,
}
