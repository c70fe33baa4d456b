"""Event-level Monte Carlo for refractory Poisson ensembles.

Two independent samplers are provided on purpose.  The generative one
draws each dead time explicitly and thins candidate events against the
input rate; the rejection one never sees the dead times and instead thins
a homogeneous stream against the age-dependent hazard of the renewal
description.  Agreement between the two is a meaningful cross-check, so
neither is implemented in terms of the other.

Randomness is counter-based: every variate is a pure function of
``(seed, component, draw index)`` through a splitmix64-style mixer.  The
result of a simulation is therefore bit-identical no matter how the
component loop is chunked or scheduled, and component substreams never
need to be advanced in lockstep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import (
    Constant,
    DeadTimeLaw,
    FixedDeadTime,
    GammaDeadTime,
    InputSignal,
    Schema,
    Step,
    TabulatedDeadTime,
    TimeGrid,
    read_csv,
    write_csv,
)

__all__ = [
    "SimConfig",
    "EnsembleEstimate",
    "hazard_pprd",
    "simulate_generative",
    "simulate_rejection",
    "estimate_from_events",
    "write_estimate_csv",
    "read_estimate_csv",
    "write_events_csv",
    "read_events_csv",
]

# components processed per vectorized pass; estimates do not depend on it
_CHUNK = 1 << 18
# largest occupation table (nodes); older ages are evaluated exactly
_TABLE_MAX_NODES = 1 << 16

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = float(2.0**-53)


def _mix64(z):
    # modular wraparound is the point of the mixer; only scalar inputs
    # would warn about it
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX_1
        z = (z ^ (z >> np.uint64(27))) * _MIX_2
        return z ^ (z >> np.uint64(31))


def _component_keys(seed: int, comp: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        base = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN)
        return _mix64(base + comp.astype(np.uint64) * _GOLDEN)


def _uniform(keys: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Uniform variate in [0, 1) for draw ``idx`` of each keyed substream."""
    word = _mix64(keys + idx.astype(np.uint64) * _GOLDEN)
    return (word >> np.uint64(11)).astype(np.float64) * _INV_2_53


# ---------------------------------------------------------------------------
# hazard of the randomized-dead-time process
# ---------------------------------------------------------------------------


def _gamma_partial_exp(law: GammaDeadTime, c, a, b):
    """``int_a^b rho(x) exp(c x) dx`` for a gamma law, requiring c < rate.

    Reduces to a difference of regularized incomplete gamma functions at
    the tilted rate ``rate - c``; the difference is taken on whichever
    tail keeps the two terms well separated.
    """
    n1 = law.order + 1
    shift = law.rate - np.asarray(c, dtype=float)
    a_arr = np.asarray(a, dtype=float)
    if a_arr.ndim == 0 and float(a_arr) == 0.0:
        delta = special.gammainc(n1, shift * np.asarray(b, dtype=float))
    else:
        za, zb = np.broadcast_arrays(shift * a_arr, shift * np.asarray(b, dtype=float))
        lower_a = special.gammainc(n1, za)
        delta = np.empty_like(lower_a)
        hi = lower_a > 0.5
        if np.any(hi):
            delta[hi] = special.gammaincc(n1, za[hi]) - special.gammaincc(n1, zb[hi])
        lo = ~hi
        if np.any(lo):
            delta[lo] = special.gammainc(n1, zb[lo]) - lower_a[lo]
    delta = np.clip(delta, 0.0, None)
    if np.ndim(shift) == 0 and shift > 0.0:
        # The tilt factor is a scalar here; multiply directly unless it is
        # large enough that only the log form keeps tiny masses finite.
        factor = (law.rate / float(shift)) ** n1
        if np.isfinite(factor) and factor < 1e290:
            return delta * factor
    with np.errstate(divide="ignore"):
        out = np.exp(n1 * (np.log(law.rate) - np.log(shift)) + np.log(delta))
    return np.where(delta > 0.0, out, 0.0)


def _interval_survivor_constant(law: DeadTimeLaw, lam: float, tau, surv=None):
    """E[F] for a constant input rate.

    E[F] = exp(-lam*tau) * int_0^tau exp(lam*x) rho(x) dx
         + atom0 * exp(-lam*tau) + survivor(tau).

    A gamma law with rate above ``lam`` collapses to incomplete-gamma
    terms; laws without a closed form go through Simpson quadrature.
    ``surv`` lets callers that already hold ``law.survivor(tau)`` share it.
    """
    tau = np.asarray(tau, dtype=float)
    if lam == 0.0:
        return np.ones_like(tau)
    if isinstance(law, FixedDeadTime):
        d = law.duration
        return np.where(tau < d, 1.0, np.exp(-lam * np.maximum(tau - d, 0.0)))
    if isinstance(law, GammaDeadTime) and law.rate > lam * (1.0 + 1e-9):
        if surv is None:
            surv = np.asarray(law.survivor(tau), dtype=float)
        body = np.exp(-lam * tau) * _gamma_partial_exp(law, lam, 0.0, tau)
        return body + surv
    return _interval_survivor_quadrature(law, lam, tau, surv)


def _interval_survivor_quadrature(law: DeadTimeLaw, lam: float, tau, surv=None):
    """Simpson fallback for E[F] at constant rate."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    if surv is not None:
        surv = np.broadcast_to(np.asarray(surv, dtype=float), tau.shape)
    w = float(law.support_window())
    upper = np.minimum(tau, w)
    n = 512
    s = np.linspace(0.0, 1.0, n + 1)
    x = upper[:, None] * s[None, :]
    weights = np.full(n + 1, 2.0 / 3.0)
    weights[1::2] = 4.0 / 3.0
    weights[0] = weights[-1] = 1.0 / 3.0
    rho = np.asarray(law.density(x.ravel()), dtype=float).reshape(x.shape)
    vals = np.exp(lam * (x - tau[:, None])) * rho
    out = (vals * weights[None, :]).sum(axis=1) * (upper / n)
    out += float(law.atom0) * np.exp(-lam * tau)
    if surv is None:
        surv = np.asarray(law.survivor(tau), dtype=float)
    return out + surv


def _interval_survivor_step_gamma(sig: Step, law: GammaDeadTime, t, tau, surv=None):
    """E[F] for a rate step whose switch falls inside the lookback window.

    The exposure is piecewise linear in the recovery point, so both
    pieces reduce to tilted incomplete-gamma integrals.
    """
    t = np.asarray(t, dtype=float)
    tau = np.asarray(tau, dtype=float)
    lam0, lam1, ts = sig.before, sig.after, sig.t_switch
    x_star = ts - t + tau
    part_pre = np.exp(-lam0 * x_star - lam1 * (t - ts)) * _gamma_partial_exp(
        law, lam0, 0.0, x_star
    )
    part_post = np.exp(-lam1 * tau) * _gamma_partial_exp(law, lam1, x_star, tau)
    if surv is None:
        surv = np.asarray(law.survivor(tau), dtype=float)
    return part_pre + part_post + surv


def _interval_survivor_general(sig: InputSignal, law: DeadTimeLaw, t, tau, surv=None):
    """E[F] for arbitrary input, with exact cumulative-rate differences."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    t, tau = np.broadcast_arrays(t, tau)
    if surv is not None:
        surv = np.broadcast_to(np.asarray(surv, dtype=float), tau.shape)
    big_t = np.asarray(sig.cumulative_rate(t), dtype=float)
    if isinstance(law, FixedDeadTime):
        d = law.duration
        recov = np.asarray(sig.cumulative_rate(t - tau + d), dtype=float)
        return np.where(tau < d, 1.0, np.exp(-(big_t - recov)))
    w = float(law.support_window())
    upper = np.minimum(tau, w)
    n = 512
    s = np.linspace(0.0, 1.0, n + 1)
    x = upper[:, None] * s[None, :]
    weights = np.full(n + 1, 2.0 / 3.0)
    weights[1::2] = 4.0 / 3.0
    weights[0] = weights[-1] = 1.0 / 3.0
    exposure = big_t[:, None] - np.asarray(
        sig.cumulative_rate((t - tau)[:, None] + x), dtype=float
    )
    rho = np.asarray(law.density(x.ravel()), dtype=float).reshape(x.shape)
    vals = np.exp(-exposure) * rho
    out = (vals * weights[None, :]).sum(axis=1) * (upper / n)
    atom = float(law.atom0)
    if atom > 0.0:
        out = out + atom * np.exp(
            -(big_t - np.asarray(sig.cumulative_rate(t - tau), dtype=float))
        )
    if surv is None:
        surv = np.asarray(law.survivor(tau), dtype=float)
    return out + surv


def _expected_interval_survivor(sig, law, t, tau, surv=None):
    """Probability that a component's current inter-event span reaches age tau."""
    if isinstance(sig, Constant):
        return _interval_survivor_constant(law, sig.level, tau, surv)
    if isinstance(sig, Step):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
        t_arr, tau_arr = np.broadcast_arrays(t_arr, tau_arr)
        if surv is not None:
            surv = np.broadcast_to(np.asarray(surv, dtype=float), tau_arr.shape)

        def surv_part(mask):
            return None if surv is None else surv[mask]

        out = np.empty(t_arr.shape)
        pre = t_arr <= sig.t_switch
        post = (t_arr - tau_arr) >= sig.t_switch
        mixed = ~(pre | post)
        if np.any(pre):
            out[pre] = _interval_survivor_constant(
                law, sig.before, tau_arr[pre], surv_part(pre)
            )
        if np.any(post):
            out[post] = _interval_survivor_constant(
                law, sig.after, tau_arr[post], surv_part(post)
            )
        if np.any(mixed):
            closed = isinstance(law, GammaDeadTime) and law.rate > max(
                sig.before, sig.after
            ) * (1.0 + 1e-9)
            fn = _interval_survivor_step_gamma if closed else _interval_survivor_general
            out[mixed] = fn(sig, law, t_arr[mixed], tau_arr[mixed], surv_part(mixed))
        return out
    return _interval_survivor_general(sig, law, t, tau, surv)


def _occupation(sig, law, t, tau):
    """Probability of being active at ``t`` given the last event was tau ago."""
    tau_arr = np.asarray(tau, dtype=float)
    if isinstance(law, FixedDeadTime):
        shape = np.broadcast_shapes(np.shape(t), tau_arr.shape)
        return np.broadcast_to(
            np.where(tau_arr >= law.duration, 1.0, 0.0), shape
        ).copy()
    surv = np.asarray(law.survivor(tau_arr), dtype=float)
    ef = np.asarray(_expected_interval_survivor(sig, law, t, tau_arr, surv))
    with np.errstate(divide="ignore", invalid="ignore"):
        held = np.where(ef > 0.0, surv / ef, 1.0)
    return np.clip(1.0 - held, 0.0, 1.0)


def hazard_pprd(sig: InputSignal, law: DeadTimeLaw, t, tau):
    """Event rate at time ``t`` given the last event happened ``tau`` ago.

    Always between 0 and the input rate at ``t``, approaching the input
    rate once ``tau`` outgrows the dead-time support.  A fixed dead time
    reduces to the sharp threshold ``rate(t) * (tau >= duration)``.
    Scalars broadcast against arrays in either argument.
    """
    tau_arr = np.asarray(tau, dtype=float)
    if np.any(tau_arr < 0.0):
        raise ValueError("age since the last event cannot be negative")
    lam = np.asarray(sig.rate(t), dtype=float)
    scalar = lam.ndim == 0 and tau_arr.ndim == 0
    if isinstance(law, FixedDeadTime):
        out = np.where(tau_arr >= law.duration, lam, 0.0)
    else:
        out = lam * _occupation(sig, law, t, tau_arr)
    return float(np.asarray(out).ravel()[0]) if scalar else out


class _OccupationTable:
    """Occupation at one constant input rate as a function of age alone.

    For a gamma law under its closed form (rate above the input rate).
    Holds the exact ``_occupation`` at the ages ``k*h`` and interpolates
    between them with the four-point Lagrange cubic; ``h`` is 1/128 of the
    dead time's standard deviation or of the mean input interval,
    whichever is shorter, which keeps the error below 1e-8 for any order
    and rate.  Nodes are computed on demand and each ``k`` always gets the
    same value, so the result does not depend on how the components are
    chunked.  Ages past ``_TABLE_MAX_NODES`` nodes are evaluated exactly.
    """

    def __init__(self, law: GammaDeadTime, lam: float):
        self.sig = Constant(lam)
        self.law = law
        scale = math.sqrt(law.order + 1) / law.rate
        if lam > 0.0:
            scale = min(scale, 1.0 / lam)
        self.h = scale / 128.0
        self.values = np.empty(0)

    def __call__(self, tau: np.ndarray) -> np.ndarray:
        x = tau / self.h
        j0 = np.maximum(np.floor(x) - 1.0, 0.0)
        inside = j0 + 4.0 <= _TABLE_MAX_NODES
        out = np.empty_like(tau)
        if not np.all(inside):
            out[~inside] = _occupation(self.sig, self.law, 0.0, tau[~inside])
            x, j0 = x[inside], j0[inside]
        if x.size:
            need = int(j0.max()) + 4
            if need > self.values.size:
                n = min(max(need, 2 * self.values.size), _TABLE_MAX_NODES)
                ages = np.arange(self.values.size, n) * self.h
                fresh = _occupation(self.sig, self.law, 0.0, ages)
                self.values = np.concatenate([self.values, fresh])
            u = x - j0
            u1, u2, u3 = u - 1.0, u - 2.0, u - 3.0
            j = j0.astype(np.int64)
            v = self.values
            q = (
                (u * u1 * u2) / 6.0 * v[j + 3]
                - (u * u1 * u3) / 2.0 * v[j + 2]
                + (u * u2 * u3) / 2.0 * v[j + 1]
                - (u1 * u2 * u3) / 6.0 * v[j]
            )
            out[inside] = np.clip(q, 0.0, 1.0)
        return out


def _occupation_tables(sig, law):
    """Tables for the regimes of ``sig`` at a constant rate, or None each.

    The pair is (before, after): a ``Constant`` input is all "before", a
    ``Step`` switches from one to the other; other inputs get none.
    """

    def table(lam):
        closed = isinstance(law, GammaDeadTime) and law.rate > lam * (1.0 + 1e-9)
        return _OccupationTable(law, lam) if closed else None

    if isinstance(sig, Constant):
        return table(sig.level), None
    if isinstance(sig, Step):
        return table(sig.before), table(sig.after)
    return None, None


def _sweep_occupation(sig, law, t: float, tau: np.ndarray, tables) -> np.ndarray:
    """``_occupation(sig, law, t, tau)`` with the constant-rate regimes read from tables.

    Components whose last event precedes a step's switch stay exact.
    """
    before, after = tables
    if isinstance(sig, Step) and t > sig.t_switch:
        if after is None:
            return _occupation(sig, law, t, tau)
        post = (t - tau) >= sig.t_switch
        out = np.empty_like(tau)
        out[post] = after(tau[post])
        out[~post] = _occupation(sig, law, t, tau[~post])
        return out
    if before is None:
        return _occupation(sig, law, t, tau)
    return before(tau)


# ---------------------------------------------------------------------------
# configuration and estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Ensemble-simulation settings.

    ``lambda_max`` bounds the input rate over the span and drives the
    thinning; it is validated against the signal before any sampling
    happens.
    """

    components: int
    seed: int
    t_span: tuple[float, float]
    bin_width: float
    lambda_max: float

    def __post_init__(self):
        if self.components < 1:
            raise ValueError("need at least one component")
        if not (self.bin_width > 0.0):
            raise ValueError("bin width must be positive")
        t0, t1 = self.t_span
        if not (t1 > t0):
            raise ValueError("time span must have positive length")
        if not (self.lambda_max > 0.0):
            raise ValueError("thinning bound must be positive")

    @property
    def n_bins(self) -> int:
        t0, t1 = self.t_span
        return max(1, int(np.floor((t1 - t0) / self.bin_width + 1e-9)))

    def bin_grid(self) -> TimeGrid:
        """Grid of bin centers."""
        return TimeGrid(
            self.t_span[0] + 0.5 * self.bin_width, self.bin_width, self.n_bins
        )


@dataclass(frozen=True)
class EnsembleEstimate:
    """Binned ensemble-rate and active-fraction estimates.

    ``grid`` holds the bin centers.  Active-fraction columns are NaN when
    the underlying events carry no refractory information.
    """

    grid: TimeGrid
    rate_hat: np.ndarray
    rate_se: np.ndarray
    active_hat: np.ndarray
    active_se: np.ndarray
    event_count: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        for name in ("rate_hat", "rate_se", "active_hat", "active_se", "event_count"):
            arr = np.asarray(getattr(self, name))
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
            object.__setattr__(self, name, arr)
        if np.any(self.rate_hat < 0.0):
            raise ValueError("rate estimate must be non-negative")
        a = self.active_hat[~np.isnan(self.active_hat)]
        if a.size and (np.any(a < 0.0) or np.any(a > 1.0)):
            raise ValueError("active-fraction estimate must lie in [0, 1]")
        if np.any(self.event_count < 0):
            raise ValueError("event counts must be non-negative")
        if np.any(self.rate_se < 0.0) or np.any(self.active_se < 0.0):
            raise ValueError("standard errors must be non-negative or NaN")


ESTIMATE_CSV = Schema("estimate", "t,nu_hat,nu_se,A_hat,A_se,count", "ffnnni")
EVENTS_CSV = Schema("events", "component,event_time", "if", empty_ok=True)


def write_estimate_csv(est: EnsembleEstimate, path) -> None:
    write_csv(path, ESTIMATE_CSV, (
        est.grid.times(), est.rate_hat, est.rate_se,
        est.active_hat, est.active_se, est.event_count,
    ))


def read_estimate_csv(path) -> EnsembleEstimate:
    (t, *columns), _ = read_csv(path, ESTIMATE_CSV)
    return EnsembleEstimate(TimeGrid.from_times(t), *columns)


def write_events_csv(events, path) -> None:
    write_csv(path, EVENTS_CSV, events)


def read_events_csv(path):
    """Component indices and event times; a table without rows has no events."""
    return tuple(read_csv(path, EVENTS_CSV)[0])


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------


def _dead_time_quantile(law: DeadTimeLaw, u: np.ndarray) -> np.ndarray:
    if isinstance(law, FixedDeadTime):
        return np.full_like(u, law.duration)
    if isinstance(law, GammaDeadTime):
        return special.gammainccinv(law.order + 1, 1.0 - u) / law.rate
    if isinstance(law, TabulatedDeadTime):
        out = np.interp(u, law._cdf, law.x)
        return np.where(u <= law.atom0, 0.0, out)
    return np.array([law.quantile(float(v)) for v in np.atleast_1d(u)])


def _length_biased_quantile(law: DeadTimeLaw, u: np.ndarray) -> np.ndarray:
    """Inverse CDF of the size-biased dead-time law x*rho(x)/mean."""
    if isinstance(law, FixedDeadTime):
        return np.full_like(u, law.duration)
    if isinstance(law, GammaDeadTime):
        return special.gammainccinv(law.order + 2, 1.0 - u) / law.rate
    if isinstance(law, TabulatedDeadTime):
        x = np.asarray(law.x, dtype=float)
    else:
        x = np.linspace(0.0, float(law.support_window()), 8193)
    weighted = x * np.asarray(law.density(x), dtype=float)
    cdf = np.concatenate(
        ([0.0], np.cumsum(0.5 * (weighted[1:] + weighted[:-1]) * np.diff(x)))
    )
    cdf /= cdf[-1]
    return np.interp(u, cdf, x)


def _stationary_age_quantile(law: DeadTimeLaw, lam0: float, u: np.ndarray):
    """Inverse CDF of the stationary age of the last event.

    The age density is proportional to the expected interval survivor at
    the pre-span constant rate; past the dead-time support it decays like
    the bare exponential, so forty e-folds of margin close the table.
    """
    w = float(law.support_window())
    if lam0 <= 0.0:
        return np.full_like(u, w + 1.0)
    tau = np.linspace(0.0, w + 40.0 / lam0, 8193)
    pdf = np.asarray(_interval_survivor_constant(law, lam0, tau), dtype=float)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(tau))))
    cdf /= cdf[-1]
    return np.interp(u, cdf, tau)


def _validate_bound(sig: InputSignal, cfg: SimConfig) -> None:
    t0, t1 = cfg.t_span
    peak = float(sig.max_rate(t0, t1))
    if cfg.lambda_max < peak * (1.0 - 1e-12):
        raise ValueError(
            f"thinning bound {cfg.lambda_max} lies below the peak input rate {peak}"
        )


def _mark_dead(diff, t0, bw, n_bins, start, stop):
    """Accumulate dead coverage of bin centers on a difference array."""
    lo = np.ceil((np.asarray(start) - t0) / bw - 0.5).astype(np.int64)
    hi = np.ceil((np.asarray(stop) - t0) / bw - 0.5).astype(np.int64)
    lo = np.clip(lo, 0, n_bins)
    hi = np.clip(hi, 0, n_bins)
    keep = hi > lo
    if np.any(keep):
        diff += np.bincount(lo[keep], minlength=n_bins + 1)
        diff -= np.bincount(hi[keep], minlength=n_bins + 1)


def _gather_events(collect):
    if collect:
        comp = np.concatenate([c for c, _ in collect])
        times = np.concatenate([t for _, t in collect])
        order = np.lexsort((times, comp))
        return comp[order], times[order]
    return np.empty(0, dtype=np.int64), np.empty(0)


def _finish_estimate(cfg, counts, active_hat, active_se, collect):
    m = cfg.components
    bw = cfg.bin_width
    est = EnsembleEstimate(
        cfg.bin_grid(),
        counts / (m * bw),
        np.sqrt(counts) / (m * bw),
        active_hat,
        active_se,
        counts,
    )
    if collect is None:
        return est
    return est, _gather_events(collect)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def simulate_generative(
    sig: InputSignal, law: DeadTimeLaw, cfg: SimConfig, return_events: bool = False
):
    """Sample the ensemble by drawing dead times and thinning the input.

    Components start from the stationary ensemble of the left-limit rate
    at the start of the span: active with the equilibrium probability and
    otherwise at a uniform position inside a length-biased dead time.
    With ``return_events`` the result is ``(estimate, (components, times))``
    sorted by component, then time.
    """
    _validate_bound(sig, cfg)
    t0 = cfg.t_span[0]
    bw = cfg.bin_width
    n_bins = cfg.n_bins
    t_stop = t0 + n_bins * bw
    lam_max = cfg.lambda_max
    lam0 = float(sig.rate_left(t0))
    a_eq = 1.0 / (1.0 + lam0 * law.mean())
    # a constant rate equal to the bound accepts every proposal, so the
    # acceptance draw can be skipped without changing the law of the output
    sure_accept = isinstance(sig, Constant) and lam_max == sig.level

    counts = np.zeros(n_bins, dtype=np.int64)
    dead_diff = np.zeros(n_bins + 1, dtype=np.int64)
    collect = [] if return_events else None

    for c_lo in range(0, cfg.components, _CHUNK):
        comp = np.arange(c_lo, min(c_lo + _CHUNK, cfg.components), dtype=np.int64)
        keys = _component_keys(cfg.seed, comp)
        idx = np.zeros(comp.size, dtype=np.int64)

        u_state = _uniform(keys, idx)
        idx += 1
        u_len = _uniform(keys, idx)
        idx += 1
        u_pos = _uniform(keys, idx)
        idx += 1
        residual = (1.0 - u_pos) * _length_biased_quantile(law, u_len)
        blocked = u_state >= a_eq
        t_cur = np.where(blocked, t0 + residual, t0)
        _mark_dead(
            dead_diff, t0, bw, n_bins, np.full(int(blocked.sum()), t0), t_cur[blocked]
        )

        alive = t_cur < t_stop
        while np.any(alive):
            sub = np.nonzero(alive)[0]
            u_e = _uniform(keys[sub], idx[sub])
            idx[sub] += 1
            t_prop = t_cur[sub] - np.log1p(-u_e) / lam_max
            over = t_prop >= t_stop
            alive[sub[over]] = False
            sub = sub[~over]
            t_prop = t_prop[~over]
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
                counts += np.bincount(
                    ((t_ev - t0) / bw).astype(np.int64), minlength=n_bins
                )
                if collect is not None:
                    collect.append((comp[hit], t_ev))
                u_d = _uniform(keys[hit], idx[hit])
                idx[hit] += 1
                x = _dead_time_quantile(law, u_d)
                _mark_dead(dead_diff, t0, bw, n_bins, t_ev, t_ev + x)
                t_cur[hit] = t_ev + x
                alive[hit] = t_cur[hit] < t_stop

    dead = np.cumsum(dead_diff[:-1])
    active_hat = 1.0 - dead / cfg.components
    active_se = np.sqrt(
        np.clip(active_hat * (1.0 - active_hat), 0.0, None) / cfg.components
    )
    return _finish_estimate(cfg, counts, active_hat, active_se, collect)


def simulate_rejection(
    sig: InputSignal, law: DeadTimeLaw, cfg: SimConfig, return_events: bool = False
):
    """Sample the ensemble by thinning against the age-dependent hazard.

    No dead time is ever drawn; the age since the last event is the whole
    per-component state, initialized from the stationary age law.  The
    active fraction is estimated from the occupation probability at each
    bin center given each component's age, averaged over components; for
    a gamma law the constant-rate regimes read it from an age table
    (within 1e-8), while the thinning always uses the exact hazard.
    """
    _validate_bound(sig, cfg)
    t0 = cfg.t_span[0]
    bw = cfg.bin_width
    n_bins = cfg.n_bins
    t_stop = t0 + n_bins * bw
    lam_max = cfg.lambda_max
    lam0 = float(sig.rate_left(t0))
    centers = cfg.bin_grid().times()
    tables = _occupation_tables(sig, law)

    counts = np.zeros(n_bins, dtype=np.int64)
    q_sum = np.zeros(n_bins)
    q_sq = np.zeros(n_bins)
    collect = [] if return_events else None

    for c_lo in range(0, cfg.components, _CHUNK):
        comp = np.arange(c_lo, min(c_lo + _CHUNK, cfg.components), dtype=np.int64)
        keys = _component_keys(cfg.seed, comp)
        idx = np.zeros(comp.size, dtype=np.int64)

        u_age = _uniform(keys, idx)
        idx += 1
        init_last = t0 - _stationary_age_quantile(law, lam0, u_age)
        last_ev = init_last.copy()
        t_cur = np.full(comp.size, t0)
        local_events = []

        alive = np.ones(comp.size, dtype=bool)
        while np.any(alive):
            sub = np.nonzero(alive)[0]
            u_e = _uniform(keys[sub], idx[sub])
            idx[sub] += 1
            u_a = _uniform(keys[sub], idx[sub])
            idx[sub] += 1
            t_prop = t_cur[sub] - np.log1p(-u_e) / lam_max
            over = t_prop >= t_stop
            alive[sub[over]] = False
            keep = ~over
            sub = sub[keep]
            t_prop = t_prop[keep]
            if sub.size == 0:
                continue
            t_cur[sub] = t_prop
            h = np.asarray(hazard_pprd(sig, law, t_prop, t_prop - last_ev[sub]))
            if np.any(h > lam_max * (1.0 + 1e-9)):
                raise ValueError("hazard exceeded the thinning bound")
            acc = u_a[keep] * lam_max < h
            hit = sub[acc]
            if hit.size:
                t_ev = t_prop[acc]
                counts += np.bincount(
                    ((t_ev - t0) / bw).astype(np.int64), minlength=n_bins
                )
                local_events.append((hit, t_ev))
                last_ev[hit] = t_ev

        # replay the chunk's events chronologically so every bin center
        # sees each component's latest preceding event
        if local_events:
            e_c = np.concatenate([c for c, _ in local_events])
            e_t = np.concatenate([t for _, t in local_events])
            order = np.argsort(e_t, kind="stable")
            e_c = e_c[order]
            e_t = e_t[order]
        else:
            e_c = np.empty(0, dtype=np.int64)
            e_t = np.empty(0)
        sweep_last = init_last
        ptr = 0
        for b, tc in enumerate(centers):
            nxt = int(np.searchsorted(e_t, tc, side="right"))
            if nxt > ptr:
                np.maximum.at(sweep_last, e_c[ptr:nxt], e_t[ptr:nxt])
                ptr = nxt
            q = _sweep_occupation(sig, law, float(tc), tc - sweep_last, tables)
            q_sum[b] += float(q.sum())
            q_sq[b] += float((q * q).sum())
        if collect is not None and e_c.size:
            collect.append((comp[e_c], e_t))

    m = cfg.components
    active_hat = q_sum / m
    spread = np.clip(q_sq / m - active_hat**2, 0.0, None)
    active_se = np.sqrt(spread / m)
    return _finish_estimate(cfg, counts, active_hat, active_se, collect)


def estimate_from_events(
    events, grid: TimeGrid, components: int | None = None, dead_durations=None
):
    """Bin a recorded event stream back into an ensemble estimate.

    ``events`` is a ``(component ids, event times)`` pair sorted by
    component then time, as produced by the samplers; ``grid`` gives the
    bin centers.  ``dead_durations``, when provided per event, feeds the
    refractory bookkeeping behind the active-fraction columns; without it
    those columns are NaN.
    """
    comp = np.asarray(events[0], dtype=np.int64)
    times = np.asarray(events[1], dtype=float)
    if comp.shape != times.shape or comp.ndim != 1:
        raise ValueError("events must be parallel 1-d component and time arrays")
    if comp.size:
        if np.any(comp < 0):
            raise ValueError("component ids must be non-negative")
        if np.any(comp[1:] < comp[:-1]):
            raise ValueError("events must be sorted by component, then time")
        tied = comp[1:] == comp[:-1]
        if np.any(tied & (times[1:] < times[:-1])):
            raise ValueError("events must be sorted by component, then time")
    m = components if components is not None else (
        int(comp.max()) + 1 if comp.size else 1
    )
    if comp.size and m <= int(comp.max()):
        raise ValueError("component count below the largest component id")
    bw = grid.dt
    t_lo = grid.t0 - 0.5 * bw
    edges = t_lo + bw * np.arange(grid.n + 1)
    counts = np.histogram(times, bins=edges)[0].astype(np.int64)
    if dead_durations is not None:
        x = np.asarray(dead_durations, dtype=float)
        if x.shape != times.shape:
            raise ValueError("need one dead duration per event")
        diff = np.zeros(grid.n + 1, dtype=np.int64)
        _mark_dead(diff, t_lo, bw, grid.n, times, times + x)
        dead = np.cumsum(diff[:-1])
        active_hat = 1.0 - np.minimum(dead, m) / m
        active_se = np.sqrt(np.clip(active_hat * (1.0 - active_hat), 0.0, None) / m)
    else:
        active_hat = np.full(grid.n, np.nan)
        active_se = np.full(grid.n, np.nan)
    return EnsembleEstimate(
        grid,
        counts / (m * bw),
        np.sqrt(counts) / (m * bw),
        active_hat,
        active_se,
        counts,
    )
