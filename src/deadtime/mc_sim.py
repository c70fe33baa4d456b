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

from .core import (
    Constant,
    DeadTimeLaw,
    InputSignal,
    NumericalError,
    Schema,
    TimeGrid,
    read_csv,
    tabulated_quantile,
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
# largest error of an occupation table, checked at its half-nodes as it grows
_TABLE_BOUND = 1e-8
# half-width of the squeeze band around a table's hazard, in units of the
# input rate: ten times the table bound, so no proposal outside it can fall
# on the other side of the exact hazard
_SQUEEZE_MARGIN = 1e-7

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


def _interval_survivor_constant(law: DeadTimeLaw, lam: float, tau, surv):
    """E[F] for a constant input rate.

    E[F] = int_[0, tau] exp(lam*(x - tau)) dF(x) + survivor(tau), the atom
    at zero included: the law's tilted integral where it has a closed form,
    the general quadrature otherwise.
    """
    if lam == 0.0:
        return np.ones_like(tau)
    if not law.tilted_closed_form(lam):
        return _interval_survivor_general(Constant(lam), law, 0.0, tau, surv)
    return law.tilted_integral(lam, 0.0, tau, lam * tau) + surv


def _interval_survivor_switch(sig: InputSignal, law: DeadTimeLaw, t, tau, surv):
    """E[F] for a window holding the switch between the two levels of ``sig``.

    The exposure is piecewise linear in the recovery point, so both pieces,
    split at ``x_star``, are tilted integrals.
    """
    (lam0, lam1), ts = sig.levels(), sig.switch_time()
    x_star = ts - t + tau
    pre = law.tilted_integral(lam0, 0.0, x_star, lam0 * x_star + lam1 * (t - ts))
    return pre + law.tilted_integral(lam1, x_star, tau, lam1 * tau) + surv


def _interval_survivor_general(sig: InputSignal, law: DeadTimeLaw, t, tau, surv):
    """E[F] for arbitrary input, with exact cumulative-rate differences.

    The recovery integral runs over the law's support window and, for
    ages beyond it, over a second piece from the window to ``tau``: a tilt
    can make the little mass out there dominate.
    """
    t, tau = np.broadcast_arrays(np.asarray(t, dtype=float), tau)
    window = float(law.support_window())

    def recovery(rows, a, b):
        big_t = np.asarray(sig.cumulative_rate(t[rows]), dtype=float)
        start = (t - tau)[rows]

        def exposed(x):
            recovered = np.asarray(sig.cumulative_rate(start[:, None] + x), dtype=float)
            return np.exp(-(big_t[:, None] - recovered))

        return law.integrate(exposed, a, b)

    out = recovery(slice(None), 0.0, np.minimum(tau, window))
    # past the window lies the tail mass survivor(window); past a zero
    # window there is none but the atom, already counted
    far = tau > window
    if window > 0.0 and law.survivor(window) > 0.0 and np.any(far):
        out[far] += recovery(far, window, tau[far])
    return out + surv


def _expected_interval_survivor(sig, law, t, tau, surv):
    """Probability that a component's current inter-event span reaches age tau.

    Windows at one constant rate and windows across the switch of a step
    take the closed forms of the law where it has them; every other window
    goes through the general quadrature.
    """
    t, tau = np.broadcast_arrays(
        np.atleast_1d(np.asarray(t, dtype=float)), np.atleast_1d(np.asarray(tau, dtype=float))
    )
    surv = np.broadcast_to(np.asarray(surv, dtype=float), tau.shape)
    rate = sig.window_rate(t, tau)
    out = np.empty(tau.shape)
    for lam in dict.fromkeys(sig.levels()):
        at = rate == lam
        if np.any(at):
            out[at] = _interval_survivor_constant(law, lam, tau[at], surv[at])
    varying = np.isnan(rate)
    if np.any(varying):
        closed = sig.switch_time() is not None and all(
            law.tilted_closed_form(lam) for lam in sig.levels()
        )
        fn = _interval_survivor_switch if closed else _interval_survivor_general
        out[varying] = fn(sig, law, t[varying], tau[varying], surv[varying])
    return out


def _occupation(sig, law, t, tau):
    """Probability of being active at ``t`` given the last event was tau ago."""
    tau_arr = np.asarray(tau, dtype=float)
    surv = np.asarray(law.survivor(tau_arr), dtype=float)
    ef = _expected_interval_survivor(sig, law, t, tau_arr, surv)
    # E[F] >= survivor, so where E[F] underflows the dead time is over
    with np.errstate(divide="ignore", invalid="ignore"):
        held = np.where(ef > 0.0, surv / ef, 0.0)
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
    out = lam * _occupation(sig, law, t, tau_arr)
    return float(out.ravel()[0]) if lam.ndim == 0 and tau_arr.ndim == 0 else out


class _OccupationTable:
    """Occupation at one constant input rate as a function of age alone.

    For a law under its closed form (``tilted_closed_form``).  Holds the
    exact ``_occupation`` at the ages ``k*h`` and interpolates between them
    with the four-point Lagrange cubic, evaluated in Newton's form; ``h``
    is 1/128 of the dead time's standard deviation or of the mean input
    interval, whichever is shorter, which keeps the error below
    ``_TABLE_BOUND`` (1e-8) for gamma laws of any order and rate.  Nodes
    are computed on demand and each ``k`` always gets the same value, so
    the result does not depend on how the components are chunked.  Every
    half-node the new nodes complete is checked against the exact value as
    the table grows; a miss raises ``NumericalError``.  Ages past
    ``_TABLE_MAX_NODES`` nodes are evaluated exactly.
    """

    def __init__(self, law: DeadTimeLaw, lam: float):
        self.sig = Constant(lam)
        self.law = law
        scale = law.std()
        if lam > 0.0:
            scale = min(scale, 1.0 / lam)
        self.h = scale / 128.0
        self.values = np.empty(0)
        # Newton coefficients of the cubic on each stencil of four nodes
        self.newton = np.empty((4, 0))

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
                self._grow(min(max(need, 2 * self.values.size), _TABLE_MAX_NODES))
            out[inside] = self._interpolate(x, j0)
        return out

    def _interpolate(self, x: np.ndarray, j0: np.ndarray) -> np.ndarray:
        # the cubic through nodes j0..j0+3 in Newton's form, nested in place
        u = x - j0
        c = self.newton.take(j0.astype(np.int64), axis=1)
        q = c[3]
        q *= u - 2.0
        q += c[2]
        q *= u - 1.0
        q += c[1]
        q *= u
        q += c[0]
        return np.clip(q, 0.0, 1.0, out=q)

    def _grow(self, n: int) -> None:
        old = self.values.size
        fresh = _occupation(self.sig, self.law, 0.0, np.arange(old, n) * self.h)
        v = self.values = np.concatenate([self.values, fresh])
        d1 = np.diff(v)
        d2 = np.diff(d1) / 2.0
        d3 = np.diff(d2) / 3.0
        self.newton = np.stack([v[:-3], d1[:-2], d2[:-1], d3])
        # the half-node k + 1/2 reads nodes up to k + 2
        x = np.arange(max(old - 2, 0), n - 2) + 0.5
        if x.size:
            exact = _occupation(self.sig, self.law, 0.0, x * self.h)
            miss = np.abs(self._interpolate(x, np.maximum(np.floor(x) - 1.0, 0.0)) - exact)
            worst = int(np.argmax(miss))
            if not miss[worst] <= _TABLE_BOUND:
                raise NumericalError(
                    f"occupation table at rate {self.sig.level} misses the exact value by "
                    f"{miss[worst]:.3g} at age {x[worst] * self.h:.6g}, over its {_TABLE_BOUND:g} bound"
                )


def _occupation_tables(sig, law) -> dict:
    """Age tables for the levels of ``sig`` at which the law has its closed form."""
    return {lam: _OccupationTable(law, lam) for lam in sig.levels() if law.tilted_closed_form(lam)}


def _closed_switch(sig, tables) -> bool:
    """Whether windows across the switch of ``sig`` take the switch identity.

    That needs an upward step, both of whose levels have a table: downward
    the identity subtracts, and its error is no longer the table's.
    """
    if sig.switch_time() is None:
        return False
    lam0, lam1 = sig.levels()
    return lam0 <= lam1 and lam0 in tables and lam1 in tables


def _switch_excess(sig, law, a: np.ndarray) -> np.ndarray:
    """``D(a) = H_lam0(a) - H_lam1(a)`` of a step, with ``H_lam(a)`` the
    recovery integral ``int_[0, a] exp(-lam*(a - x)) dF(x)``.

    ``a`` is the time from a component's last event to the switch.  The
    expected interval survivor of a window across the switch is then
    ``E_lam1[F](tau) + exp(-lam1*(t - t_switch)) * D(a)``.
    """
    lam0, lam1 = sig.levels()
    return (
        law.tilted_integral(lam0, 0.0, a, lam0 * a) - law.tilted_integral(lam1, 0.0, a, lam1 * a)
    )


def _sweep_occupation(sig, law, t: float, tau: np.ndarray, tables, excess=None) -> np.ndarray:
    """``_occupation(sig, law, t, tau)`` with constant-rate windows read from tables.

    Windows across the switch of a step read the post-switch table through
    the switch identity where ``excess`` holds their ``_switch_excess``:
    with ``x = 1 - q_lam1(tau)`` and ``c = exp(-lam1*(t - t_switch)) * D / S(tau)``
    the occupation is ``1 - x/(1 + c*x)``, whose error is at most the
    table's for ``D >= 0``.  Every other window stays exact.
    """
    rate = sig.window_rate(t, tau)
    out = np.empty_like(tau)
    exact = np.ones(tau.shape, dtype=bool)
    for lam, table in tables.items():
        at = rate == lam
        out[at] = table(tau[at])
        exact &= ~at
    if excess is not None:
        across = np.isnan(rate) & ~np.isnan(excess)
        if np.any(across):
            lam1, ts = sig.levels()[1], sig.switch_time()
            x = 1.0 - tables[lam1](tau[across])
            surv = np.asarray(law.survivor(tau[across]), dtype=float)
            # x/(1 + c*x) with the survivor multiplied through; where it
            # underflows the dead time is over
            den = surv + math.exp(-lam1 * (t - ts)) * excess[across] * x
            with np.errstate(divide="ignore", invalid="ignore"):
                out[across] = 1.0 - np.where(den > 0.0, x * surv / den, 0.0)
            exact &= ~across
    if np.any(exact):
        out[exact] = _occupation(sig, law, t, tau[exact])
    return out


def _accept(sig, law, tables, t: np.ndarray, tau: np.ndarray, u: np.ndarray, lam_max: float):
    """Thinning decisions ``u < hazard_pprd(sig, law, t, tau)``, by squeeze.

    Where the window sits at a tabulated level, the table's hazard decides
    every proposal outside the band ``rate * (q_table -+ _SQUEEZE_MARGIN)``;
    the proposals inside it, and windows without a table, take the exact
    hazard, so the decisions are the exact ones.
    """
    lam = np.asarray(sig.rate(t), dtype=float)
    rate = sig.window_rate(t, tau)
    q = np.full(tau.shape, np.nan)
    for level, table in tables.items():
        at = rate == level
        q[at] = table(tau[at])
    # a NaN occupation (no table) fails both comparisons
    with np.errstate(invalid="ignore"):
        acc = u < lam * (q - _SQUEEZE_MARGIN)
        exact = ~acc & ~(u >= lam * (q + _SQUEEZE_MARGIN))
    if np.any(exact):
        h = np.asarray(hazard_pprd(sig, law, t[exact], tau[exact]))
        if np.any(h > lam_max * (1.0 + 1e-9)):
            raise ValueError("hazard exceeded the thinning bound")
        acc[exact] = u[exact] < h
    return acc


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
    pdf = _expected_interval_survivor(Constant(lam0), law, 0.0, tau, law.survivor(tau))
    return tabulated_quantile(tau, pdf, u)


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


def _estimate(grid: TimeGrid, m: int, counts, active_hat, spread) -> EnsembleEstimate:
    """Estimate over ``m`` components from the event counts per bin of ``grid``,
    the active fraction and its variance across components, ``spread``."""
    bw = grid.dt
    return EnsembleEstimate(
        grid,
        counts / (m * bw),
        np.sqrt(counts) / (m * bw),
        active_hat,
        np.sqrt(np.clip(spread, 0.0, None) / m),
        counts,
    )


def _finish_estimate(cfg: SimConfig, counts, active_hat, spread, collect):
    """A sampler's estimate, paired with the ``collect``-ed events sorted by
    component, then time, unless ``collect`` is None."""
    est = _estimate(cfg.bin_grid(), cfg.components, counts, active_hat, spread)
    if collect is None:
        return est
    comp = np.concatenate([c for c, _ in collect] or [np.empty(0, dtype=np.int64)])
    times = np.concatenate([t for _, t in collect] or [np.empty(0)])
    order = np.lexsort((times, comp))
    return est, (comp[order], times[order])


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
    sure_accept = sig.levels() == (lam_max,)

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
        residual = (1.0 - u_pos) * law.length_biased_quantile(u_len)
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
                x = law.quantile(u_d)
                _mark_dead(dead_diff, t0, bw, n_bins, t_ev, t_ev + x)
                t_cur[hit] = t_ev + x
                alive[hit] = t_cur[hit] < t_stop

    active_hat = 1.0 - np.cumsum(dead_diff[:-1]) / cfg.components
    return _finish_estimate(cfg, counts, active_hat, active_hat * (1.0 - active_hat), collect)


def simulate_rejection(
    sig: InputSignal, law: DeadTimeLaw, cfg: SimConfig, return_events: bool = False
):
    """Sample the ensemble by thinning against the age-dependent hazard.

    No dead time is ever drawn; the age since the last event is the whole
    per-component state, initialized from the stationary age law.  The
    active fraction is estimated from the occupation probability at each
    bin center given each component's age, averaged over components; for
    a gamma law the constant-rate regimes read it from an age table
    (within 1e-8), and so do windows across an upward step, through the
    switch identity of ``_sweep_occupation``.  The thinning decides by
    squeeze (``_accept``): the same events as with the exact hazard alone.
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
    closed_switch, ts = _closed_switch(sig, tables), sig.switch_time()

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
            acc = _accept(sig, law, tables, t_prop, t_prop - last_ev[sub], u_a[keep] * lam_max, lam_max)
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
        excess = None
        for b, tc in enumerate(centers):
            nxt = int(np.searchsorted(e_t, tc, side="right"))
            if nxt > ptr:
                np.maximum.at(sweep_last, e_c[ptr:nxt], e_t[ptr:nxt])
                ptr = nxt
            if excess is None and closed_switch and tc > ts:
                # a component's last event before the switch stays its
                # last until it is past the switch window
                excess = np.full(comp.size, np.nan)
                before = sweep_last < ts
                excess[before] = _switch_excess(sig, law, ts - sweep_last[before])
            q = _sweep_occupation(sig, law, float(tc), tc - sweep_last, tables, excess)
            q_sum[b] += float(q.sum())
            q_sq[b] += float((q * q).sum())
        if collect is not None and e_c.size:
            collect.append((comp[e_c], e_t))

    active_hat = q_sum / cfg.components
    spread = q_sq / cfg.components - active_hat**2
    return _finish_estimate(cfg, counts, active_hat, spread, collect)


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
    # without dead durations the active-fraction columns, and their errors, are NaN
    active_hat = np.full(grid.n, np.nan)
    if dead_durations is not None:
        x = np.asarray(dead_durations, dtype=float)
        if x.shape != times.shape:
            raise ValueError("need one dead duration per event")
        diff = np.zeros(grid.n + 1, dtype=np.int64)
        _mark_dead(diff, t_lo, bw, grid.n, times, times + x)
        active_hat = 1.0 - np.minimum(np.cumsum(diff[:-1]), m) / m
    return _estimate(grid, m, counts, active_hat, active_hat * (1.0 - active_hat))
