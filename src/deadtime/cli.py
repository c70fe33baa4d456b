"""Command-line front end: every solver and sampler as a CSV-emitting command.

Commands mirror the library surface: ``step`` for transients after a rate
switch, ``periodic`` for harmonic transmission, ``pprd-step`` for random
dead-time transients, ``hazard`` for the conditional intensity of a law,
``represent`` for the renewal mapping, ``infer-input`` for the inverse
spectral problem, and ``validate`` for schema checks on produced files.

Exit codes: 0 success, 2 usage, malformed input or a size past the
memory, 3 not representable, 4 numerical failure.  Every command is
deterministic given its flags; MC commands additionally take ``--seed``.
A ``--scenario FILE`` option reads ``key = value`` defaults that explicit
flags override.  ``periodic`` solves its frequencies in threads and
``pprd-step`` runs its trials in worker processes; their count comes from
``--threads`` or the DEADTIME_THREADS environment variable, and no output
byte depends on it.  Each numeric flag and ``kind:fields`` spec has one
declared domain, its argparse ``type``: a value outside it (NaN and
infinities included) exits 2 naming the flag before anything is computed
or written, as do a ``--dt`` or ``--bin-width`` that lays more than
``_MAX_STEPS`` steps over ``--t-max``, a Monte Carlo input rate that
expects more thinning rounds than that over the run, and an output that
is an input file.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import itertools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial

import numpy as np

from . import analytic_ppd, gamma_chain
from .core import (
    Constant,
    Cosine,
    FixedDeadTime,
    GammaDeadTime,
    LAW_CSV,
    LAW_KINDS,
    NotRepresentableError,
    NumericalError,
    SPECTRUM_CSV,
    Schema,
    Spectrum,
    Step,
    TRACE_CSV,
    TimeGrid,
    Trace,
    _fmt,
    angular_frequency,
    read_csv,
    read_law_csv,
    signal_spectrum,
    write_csv,
    whole_steps,
    write_law_csv,
)
from .mc_sim import (
    ESTIMATE_CSV,
    EVENTS_CSV,
    EnsembleEstimate,
    SimConfig,
    hazard_pprd,
    read_estimate_csv,
    read_events_csv,
    simulate_generative,
    simulate_rejection,
)
from .renewal_map import (
    RenewalSpec,
    check_hazard_condition,
    construct_gamma,
    convolution_residual,
    dead_time_from_interval,
    lognormal_minimal_rate,
    minimal_lambda,
)
from .spectral import (
    MAX_TRUNCATION,
    HarmonicSystem,
    infer_input_spectrum,
    output_spectrum,
    periodic_rate,
    solve_active_spectrum,
)

__all__ = ["main"]

# formats only the command line uses (INTERVAL_CSV it only reads); the library declares the rest
COMBINED_CSV = Schema("combined", "t,A,nu,nu_hat,nu_se,A_hat,A_se,count", "ffffnnni")
HAZARD_CSV = Schema("hazard", "tau,h,rho", "fff")
SWEEP_CSV = Schema("sweep", "f,k,abs,phase", "fiff")
SWEEP_MAX_CSV = Schema("sweep", SWEEP_CSV.header + ",max_nu", "fifff")
INTERVAL_CSV = Schema("interval", "x,density", "ff", headerless=True)


# ---------------------------------------------------------------------------
# small plumbing
# ---------------------------------------------------------------------------


def _report(msg: str) -> None:
    print(msg, file=sys.stderr)


class _OutOfDomain(Exception):
    """A flag value outside its domain; not a ValueError, so argparse passes it on."""


def _domain(convert, ok, rule):
    """Argparse ``type`` of one flag: ``convert`` its text, then require ``ok``."""

    def parse(flag, text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise _OutOfDomain(f"{flag} must be {rule}, got {text!r}")

    return parse


def _at_least(low):
    return _domain(int, lambda v: v >= low, f"an integer >= {low}")


def _sweep_bounds(text):
    lo, hi, steps = text.split(":")
    return float(lo), float(hi), int(steps)


def _kind_fields(kinds, text):
    """``(kind, fields, text)`` of a ``kind:fields`` spec, each field in its kind's type;
    a kind of one field takes all the text after the colon, a file name."""
    kind, _, rest = text.partition(":")
    types = kinds[kind][1] if kind in kinds else ()
    fields = [rest] if len(types) == 1 else rest.split(",")
    if len(fields) != len(types) or not all(fields):
        raise ValueError(text)
    return kind, [convert(field) for convert, field in zip(types, fields)], text


def _built(flag, kinds, spec):
    """The builder of ``spec``'s kind on its fields; a failure names ``flag`` and the spec."""
    kind, fields, text = spec
    try:
        return kinds[kind][2](*fields)
    except (ValueError, OSError) as err:
        raise ValueError(f"{flag} {text!r}: {err}") from err


_POSITIVE = _domain(float, lambda v: 0.0 < v < math.inf, "positive and finite")
_NON_NEGATIVE = _domain(float, lambda v: 0.0 <= v < math.inf, "finite and >= 0")
_FRACTION = _domain(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_INTEGER = _domain(int, lambda v: True, "an integer")
_THREADS = _at_least(1)
_SWEEP = _domain(_sweep_bounds, lambda b: 0.0 < b[0] < b[1] < math.inf and b[2] >= 2,
                 "lo:hi:steps with 0 < lo < hi finite and steps >= 2")


def _thread_count(args) -> int:
    if args.threads is not None:
        return args.threads
    text = os.environ.get("DEADTIME_THREADS", "").strip()
    return _THREADS("DEADTIME_THREADS", text) if text else min(8, os.cpu_count() or 1)


def _law(args):
    """Dead-time law of ``--law``, else the fixed dead time ``--d``."""
    if args.law is not None:
        return _built("--law", LAW_KINDS, args.law)
    if args.d is None:
        raise ValueError("need --d or --law")
    return FixedDeadTime(args.d)


def _refuse_overwrite(args, flag, outputs):
    """Refuse, before anything is written, an output of ``flag`` that is a file the
    command reads: ``--beta-csv`` or the file of a ``--law`` or ``--process`` spec."""
    inputs = [("--beta-csv", args.beta_csv)] if getattr(args, "beta_csv", None) else []
    for spec_flag in ("--law", "--process"):
        spec = getattr(args, spec_flag[2:], None)
        inputs += [(spec_flag, field) for field in spec[1] if isinstance(field, str)] if spec else []
    for (in_flag, source), out in itertools.product(inputs, outputs):
        with contextlib.suppress(OSError):  # a file that is not there is not read
            if out != "-" and os.path.samefile(out, source):
                raise ValueError(f"{flag} {out!r} is the file {in_flag} reads; it would be replaced")


def _load_scenario(path: str) -> list[str]:
    tokens: list[str] = []
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"scenario line without '=': {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            if value.lower() in ("true", "yes", "on"):
                tokens.append(flag)
            elif value.lower() in ("false", "no", "off"):
                pass
            else:
                tokens.append(f"{flag}={value}")
    return tokens


def _expand_scenario(argv: list[str]) -> list[str]:
    """Splice scenario-file tokens in front of explicit flags (which win)."""
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
    pre.add_argument("--scenario", action="append", default=[])
    paths, rest = pre.parse_known_args(argv)
    if not paths.scenario:
        return argv
    if len(paths.scenario) > 1:
        raise ValueError("--scenario given more than once")
    if not rest:
        raise ValueError("--scenario requires a command")
    return [rest[0]] + _load_scenario(paths.scenario[0]) + rest[1:]


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------


def _target_or_override(override, nu, mean_dead, label):
    """``override``, else the input rate whose equilibrium output rate is ``nu``."""
    if override is not None:
        return override
    if nu is None:
        raise ValueError(f"{label} (or an input rate override) is required")
    slack = 1.0 / nu - mean_dead
    if slack <= 0.0:
        raise ValueError(f"{label} = {nu} Hz is unreachable with mean dead time {mean_dead}")
    return 1.0 / slack


# most steps of --dt or --bin-width a command lays over --t-max, and most
# thinning rounds a Monte Carlo component expects over its run
_MAX_STEPS = 1 << 26


def _steps(t_max: float, width: float, flag: str) -> int:
    """Whole steps of ``width`` (the value of ``flag``) in ``t_max``, checked
    against ``_MAX_STEPS`` before any grid is built."""
    steps = whole_steps(t_max, width)
    if not steps <= _MAX_STEPS:
        raise ValueError(f"{flag} {width!r} lays more than {_MAX_STEPS} steps over --t-max {t_max!r}")
    return int(steps)


def _mc_bins(args, lam0: float, lam1: float):
    """Step input, run settings and bin centers of a Monte Carlo step command.

    The run starts one bin before the switch, so its first bin is dropped
    and ``centers`` holds the ``--t-max`` worth of bins after it.
    """
    flag, bw = ("--bin-width", args.bin_width) if args.bin_width is not None else ("--dt", args.dt)
    n = _steps(args.t_max, bw, flag)
    if n < 1:
        raise ValueError("--t-max shorter than one bin")
    lam_max = max(lam0, lam1)
    if not lam_max * (n + 1) * bw <= _MAX_STEPS:
        raise ValueError(f"input rate {lam_max!r} Hz needs more than {_MAX_STEPS} thinning rounds "
                         f"per component over --t-max {args.t_max!r}")
    cfg = SimConfig(
        components=args.mc,
        seed=args.seed,
        t_span=(-bw, n * bw),
        bin_width=bw,
        lambda_max=lam_max,
    )
    return Step(lam0, lam1, 0.0), cfg, TimeGrid(bw / 2.0, bw, n)


def cmd_step(args) -> int:
    d = args.d
    if d is None:
        raise ValueError("--d is required")
    lam0 = _target_or_override(args.lambda0, args.nu0, d, "--nu0")
    lam1 = _target_or_override(args.lambda1, args.nu1, d, "--nu1")

    if not args.mc:
        n = _steps(args.t_max, args.dt, "--dt") + 1
        trace = analytic_ppd.step_response(lam0, lam1, d, TimeGrid(0.0, args.dt, n))
        trace.to_csv(args.out)
        return 0

    sig, cfg, centers = _mc_bins(args, lam0, lam1)
    est = simulate_generative(sig, FixedDeadTime(d), cfg)
    ref = analytic_ppd.step_response(lam0, lam1, d, centers)
    write_csv(args.out, COMBINED_CSV, (
        centers.times(), ref.active, ref.rate, est.rate_hat[1:], est.rate_se[1:],
        est.active_hat[1:], est.active_se[1:], est.event_count[1:],
    ))
    return 0


# ---------------------------------------------------------------------------
# periodic
# ---------------------------------------------------------------------------


def _solve_one_frequency(law, lam0, eps, harmonics, samples, f):
    omega = angular_frequency(f)
    drive = signal_spectrum(Cosine(lam0, eps, f), omega, harmonics)
    system = HarmonicSystem(omega, harmonics, law, drive)
    alpha = solve_active_spectrum(system)
    beta = output_spectrum(system, alpha)
    grid = TimeGrid(0.0, (1.0 / f) / samples, samples + 1)
    trace = periodic_rate(system, beta, grid)
    return beta, trace


def cmd_periodic(args) -> int:
    threads = _thread_count(args)
    law = _law(args)
    lam0 = _target_or_override(args.lambda0, args.nu0, law.mean(), "--nu0")
    eps = args.mod_depth * lam0
    if args.f is not None:
        freqs = [args.f]
    elif args.f_sweep is not None:
        freqs = list(np.linspace(*args.f_sweep))
    else:
        raise ValueError("need --f or --f-sweep")
    out_dir = os.path.dirname(args.out_prefix)
    if out_dir and not os.path.isdir(out_dir):
        raise ValueError(f"output directory {out_dir!r} does not exist")
    tags = [f"{f:g}" for f in freqs]
    if len(set(tags)) < len(tags):
        clash = next(t for t in tags if tags.count(t) > 1)
        same = ", ".join(repr(float(f)) for f, t in zip(freqs, tags) if t == clash)
        raise ValueError(
            f"frequencies {same} would all write files tagged f{clash}; "
            "use a coarser --f-sweep"
        )
    paths = [(f"{args.out_prefix}-trace-f{t}.csv", f"{args.out_prefix}-beta-f{t}.csv") for t in tags]
    sweep = f"{args.out_prefix}-sweep.csv"
    _refuse_overwrite(args, "--out-prefix", [*itertools.chain(*paths), sweep])

    solve = partial(_solve_one_frequency, law, lam0, eps, args.harmonics, args.samples)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(solve, freqs))

    rows = []
    for f, (trace_path, beta_path), (beta, trace) in zip(freqs, paths, results):
        trace.to_csv(trace_path)
        beta.to_csv(beta_path)
        peak = (float(np.max(trace.rate)),) if args.max_rate else ()
        for k in range(-args.harmonics, args.harmonics + 1):
            c = beta.coefficient(k)
            rows.append((f, k, abs(c), cmath.phase(c), *peak))
    schema = SWEEP_MAX_CSV if args.max_rate else SWEEP_CSV
    write_csv(sweep, schema, zip(*rows))
    return 0


# ---------------------------------------------------------------------------
# pprd-step
# ---------------------------------------------------------------------------


def cmd_pprd_step(args) -> int:
    threads = _thread_count(args)
    if args.mean is None or args.shape is None:
        raise ValueError("--mean and --shape are required")
    law = GammaDeadTime(args.shape, (args.shape + 1) / args.mean)
    lam0 = _target_or_override(args.lambda0, args.nu0, args.mean, "--nu0")
    lam1 = _target_or_override(args.lambda1, args.nu1, args.mean, "--nu1")

    if not args.trials:
        n = _steps(args.t_max, args.dt, "--dt") + 1
        grid = TimeGrid(0.0, args.dt, n)
        trace = gamma_chain.step_response(args.shape, law.rate, lam0, lam1, grid)
        trace.to_csv(args.out)
        return 0

    if not args.mc:
        raise ValueError("--trials needs --mc for the per-trial component count")
    sig, cfg, centers = _mc_bins(args, lam0, lam1)
    configs = [replace(cfg, seed=args.seed + t) for t in range(args.trials)]
    trial = partial(simulate_rejection, sig, law)
    workers = min(threads, args.trials)
    if workers == 1:
        trials = list(map(trial, configs))
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork") if sys.platform == "linux" else None
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            trials = list(pool.map(trial, configs))

    def trial_se(values):
        if args.trials < 2:
            return np.full(centers.n, math.nan)
        return np.std(values, axis=0, ddof=1) / math.sqrt(args.trials)

    nu = np.stack([tr.rate_hat[1:] for tr in trials])
    act = np.stack([tr.active_hat[1:] for tr in trials])
    count = np.stack([tr.event_count[1:] for tr in trials]).sum(axis=0)
    ref = gamma_chain.step_response(args.shape, law.rate, lam0, lam1, centers)
    write_csv(args.out, COMBINED_CSV, (
        centers.times(), ref.active, ref.rate,
        nu.mean(axis=0), trial_se(nu), act.mean(axis=0), trial_se(act), count,
    ))
    return 0


# ---------------------------------------------------------------------------
# hazard
# ---------------------------------------------------------------------------


def cmd_hazard(args) -> int:
    law = _law(args)
    tau = np.linspace(0.0, args.tau_max, args.points)
    h = hazard_pprd(Constant(args.lambda0), law, np.zeros_like(tau), tau)
    rho = np.asarray(law.density(tau), dtype=float)
    peak = float(np.max(rho))
    rho_norm = rho / peak if peak > 0.0 else rho
    write_csv(args.out, HAZARD_CSV, (tau, h / args.lambda0, rho_norm))
    return 0


# ---------------------------------------------------------------------------
# represent
# ---------------------------------------------------------------------------


def _gamma_interval(index, rate):
    if index < 1:
        raise ValueError("gamma interval index must be at least 1")
    return RenewalSpec.from_gamma(index, rate)


#: ``represent --process`` kinds: kind -> (form, field types, interval spec,
#: representation at the default rate from the spec, its minimal rate and fields)
_PROCESSES = {
    "gamma": ("r,beta", (int, float), _gamma_interval,
              lambda spec, low, r, beta: construct_gamma(r, beta)),
    "lognormal": ("mu,sigma,delta", (float,) * 3, RenewalSpec.from_lognormal,
                  lambda spec, low, *p: dead_time_from_interval(spec, lognormal_minimal_rate(*p))),
    "table": ("FILE", (str,), lambda path: RenewalSpec.from_sampled(*read_csv(path, INTERVAL_CSV)[0]),
              lambda spec, low, path: dead_time_from_interval(spec, low)),
}


def cmd_represent(args) -> int:
    kind, params, _ = args.process
    spec = _built("--process", _PROCESSES, args.process)
    lam_min = minimal_lambda(spec)
    # an explicit rate takes the generic route, which reports the violation
    # location when the rate is too small instead of rejecting it up front
    rep = (dead_time_from_interval(spec, args.lam) if args.lam is not None
           else _PROCESSES[kind][3](spec, lam_min, *params))
    verdict = check_hazard_condition(spec, rep.input_rate)
    residual = convolution_residual(rep, spec)
    write_law_csv(rep.law, args.out)
    _report(f"input_rate = {_fmt(rep.input_rate)}")
    _report(f"minimal_rate = {_fmt(lam_min)}")
    _report(f"admissible = {verdict.admissible}")
    _report(f"convolution_residual = {_fmt(residual)}")
    return 0


# ---------------------------------------------------------------------------
# infer-input
# ---------------------------------------------------------------------------


def cmd_infer_input(args) -> int:
    law = _law(args)
    beta = Spectrum.from_csv(args.beta_csv, omega=angular_frequency(args.f))
    lam_spec, cond = infer_input_spectrum(beta, law)
    lam_spec.to_csv(args.out)
    _report(f"condition = {_fmt(cond)}")
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _check_combined(path: str) -> None:
    t, _, _, *estimate = read_csv(path, COMBINED_CSV)[0]
    EnsembleEstimate(TimeGrid.from_times(t), *estimate)


def _check_hazard(path: str) -> None:
    _, h, rho = read_csv(path, HAZARD_CSV)[0]
    _check(bool(np.all(h >= -1e-12) and np.all(rho >= -1e-12)), "normalized columns negative")


def _check_sweep(path: str, schema: Schema) -> None:
    _, _, magnitude, phase, *_ = read_csv(path, schema)[0]
    _check(bool(np.all(magnitude >= 0)), "harmonic magnitude negative")
    _check(bool(np.all(np.abs(phase) <= math.pi + 1e-9)), "phase outside (-pi, pi]")


def _validate_file(path: str) -> str:
    """Kind of the file at ``path``, once it has been read back as that kind."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
    # combined, hazard and sweep files have no library reader; the checks
    # above hold their column rules
    checks = {
        TRACE_CSV: Trace.from_csv,
        LAW_CSV: read_law_csv,
        ESTIMATE_CSV: read_estimate_csv,
        EVENTS_CSV: read_events_csv,
        COMBINED_CSV: _check_combined,
        HAZARD_CSV: _check_hazard,
        SWEEP_CSV: lambda p: _check_sweep(p, SWEEP_CSV),
        SWEEP_MAX_CSV: lambda p: _check_sweep(p, SWEEP_MAX_CSV),
    }
    for schema, check in checks.items():
        if schema.matches(header):
            check(path)
            return schema.kind
    # a spectrum has no header: its first line is already a row
    try:
        Spectrum.from_csv(path, omega=1.0)
    except ValueError as err:
        raise ValueError(f"unrecognized schema (header {header!r}): {err}") from err
    return SPECTRUM_CSV.kind


def cmd_validate(args) -> int:
    for path in args.files:
        try:
            kind = _validate_file(path)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from err
        print(f"ok {path} ({kind})")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common_out(p, default="-"):
    p.add_argument("--out", default=default, help="output file ('-' for stdout)")


def _number(p, flag, domain, **kwargs):
    p.add_argument(flag, type=partial(domain, flag), **kwargs)


def _spec(p, flag, kinds, **kwargs):
    """A ``kind:fields`` flag over the table ``kinds`` (kind -> form, field types, builder)."""
    forms = " | ".join(f"{kind}:{entry[0]}" for kind, entry in kinds.items())
    finite = lambda spec: all(math.isfinite(v) for v in spec[1] if not isinstance(v, str))
    _number(p, flag, _domain(partial(_kind_fields, kinds), finite, forms), help=forms, **kwargs)


def _step_flags(t_max: float) -> argparse.ArgumentParser:
    """The flags ``step`` and ``pprd-step`` share; only the ``--t-max`` default differs."""
    p = argparse.ArgumentParser(add_help=False)
    _number(p, "--nu0", _POSITIVE, help="pre-step equilibrium output rate (Hz)")
    _number(p, "--nu1", _POSITIVE, help="post-step equilibrium output rate (Hz)")
    _number(p, "--lambda0", _POSITIVE, help="pre-step input rate override")
    _number(p, "--lambda1", _POSITIVE, help="post-step input rate override")
    _number(p, "--t-max", _POSITIVE, default=t_max)
    _number(p, "--dt", _POSITIVE, default=1e-3)
    _number(p, "--mc", _at_least(0), default=0, help="Monte Carlo components (per trial)")
    _number(p, "--seed", _INTEGER, default=0)
    _number(p, "--bin-width", _POSITIVE, help="Monte Carlo bin width (default --dt)")
    _add_common_out(p)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deadtime",
        description="Ensemble statistics of Poisson processes with refractoriness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    law_flags = argparse.ArgumentParser(add_help=False)
    _number(law_flags, "--d", _NON_NEGATIVE, help="fixed dead time in seconds")
    _spec(law_flags, "--law", LAW_KINDS)

    p = sub.add_parser("step", parents=[_step_flags(0.5)], help="transient after a rate step")
    _number(p, "--d", _NON_NEGATIVE, help="fixed dead time in seconds")
    p.set_defaults(func=cmd_step)

    p = sub.add_parser("periodic", parents=[law_flags], help="steady response to cosine drive")
    _number(p, "--nu0", _POSITIVE, help="mean equilibrium output rate (Hz)")
    _number(p, "--lambda0", _POSITIVE, help="mean input rate override")
    _number(p, "--mod-depth", _FRACTION, default=0.9)
    _number(p, "--f", _POSITIVE, help="drive frequency (Hz)")
    _number(p, "--f-sweep", _SWEEP, help="lo:hi:steps frequency sweep")
    _number(p, "--harmonics", _domain(int, lambda v: 4 <= v <= MAX_TRUNCATION,
                                      f"an integer in 4..{MAX_TRUNCATION}"), default=16)
    _number(p, "--samples", _at_least(1), default=512, help="trace points per period")
    p.add_argument("--max-rate", action="store_true", help="append peak rate column")
    p.add_argument("--out-prefix", default="periodic")
    _number(p, "--threads", _THREADS, help="worker thread count")
    p.set_defaults(func=cmd_periodic)

    p = sub.add_parser("pprd-step", parents=[_step_flags(1.0)], help="step with gamma dead time")
    _number(p, "--mean", _POSITIVE, help="mean dead time in seconds")
    _number(p, "--shape", _at_least(1), help="gamma stage index (kernel order)")
    _number(p, "--trials", _at_least(0), default=0, help="MC trial count")
    _number(p, "--threads", _THREADS, help="worker process count")
    p.set_defaults(func=cmd_pprd_step)

    p = sub.add_parser("hazard", help="conditional intensity and law density")
    _spec(p, "--law", LAW_KINDS, required=True)
    _number(p, "--lambda0", _POSITIVE, required=True)
    _number(p, "--tau-max", _POSITIVE, required=True)
    _number(p, "--points", _at_least(2), default=513)
    _add_common_out(p)
    p.set_defaults(func=cmd_hazard)

    p = sub.add_parser("represent", help="map a renewal interval to rate + dead time")
    _spec(p, "--process", _PROCESSES, required=True)
    _number(p, "--lambda", _POSITIVE, dest="lam")
    _add_common_out(p, default="law.csv")
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("infer-input", parents=[law_flags], help="input from output spectrum")
    p.add_argument("--beta-csv", required=True)
    _number(p, "--f", _POSITIVE, required=True, help="base frequency (Hz)")
    _add_common_out(p)
    p.set_defaults(func=cmd_infer_input)

    p = sub.add_parser("validate", help="schema-check produced CSV files")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _expand_scenario(argv)
    except (argparse.ArgumentError, ValueError, OSError) as err:
        _report(f"error: {err}")
        return 2
    try:
        args = build_parser().parse_args(argv)
        _refuse_overwrite(args, "--out", [getattr(args, "out", "-")])
        return args.func(args)
    except NotRepresentableError as err:
        loc = f" at x = {err.x:.6g}" if err.x is not None else ""
        _report(f"not representable{loc}: {err}")
        return 3
    except NumericalError as err:
        _report(f"numerical failure: {err}")
        return 4
    except (_OutOfDomain, ValueError, OSError) as err:
        _report(f"error: {err}")
        return 2
    except MemoryError as err:
        _report(f"error: out of memory: {err}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
