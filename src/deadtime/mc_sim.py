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
    stationary_active_fraction,
    tabulated_quantile,
    whole_steps,
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
# largest occupation table (nodes); a table capped there evaluates older ages
# exactly
_TABLE_MAX_NODES = 1 << 16
# largest error of an occupation table, checked at its half-nodes when it is built
_TABLE_BOUND = 1e-8
# bound on 1 - q that makes an age saturated: a tenth of the table bound
_SATURATION = 1e-9
# half-width of the squeeze band around a table's hazard, in units of the
# input rate: ten times the table bound, so no proposal outside it can fall
# on the other side of the exact hazard
_SQUEEZE_MARGIN = 1e-7
# a saturation node no age reaches
_NEVER = 1 << 62
# stencils the occupation sweep weighs at a time
_GROUP = 1 << 14

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = float(2.0**-53)


def _mix64(z):
    """Splitmix64's finalizer of the words ``z``: an array is mixed in place."""
    # modular wraparound is the point of the mixer; only scalar inputs
    # would warn about it
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= _MIX_1
        z ^= z >> np.uint64(27)
        z *= _MIX_2
        z ^= z >> np.uint64(31)
        return z


def _unit(words: np.ndarray) -> np.ndarray:
    """Uniform variates in [0, 1) from the counter ``words``, which it mixes in place."""
    z = _mix64(words)
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= _INV_2_53
    return u


def _component_keys(seed: int, comp: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        base = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN)
        return _mix64(base + comp.astype(np.uint64) * _GOLDEN)


def _draw(ctr: np.ndarray) -> np.ndarray:
    """The next uniform of each counter word ``ctr = key + draw*GOLDEN``;
    the words step to the draw after it."""
    u = _unit(ctr.copy())
    ctr += _GOLDEN
    return u


def _bin_index(t, t0: float, bw: float, n_bins: int) -> np.ndarray:
    """Bin of each event time ``t`` in ``[t0, t0 + n_bins*bw)``.

    ``(t - t0)/bw`` rounded down, except that an event just below the end
    of the span whose quotient rounds up to ``n_bins`` falls in the last bin.
    """
    return np.minimum(((t - t0) / bw).astype(np.int64), n_bins - 1)


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

    Always between 0 and the input rate at ``t``.  At old ages it reaches
    the input rate once ``tau`` outgrows a bounded support; a gamma law's
    hazard under a constant rate ``c`` tends to ``min(c, rate)``, since
    above its rate the dead time's own tail is the slower one.  A fixed
    dead time reduces to the sharp threshold ``rate(t) * (tau >= duration)``.
    Scalars broadcast against arrays in either argument.
    """
    tau_arr = np.asarray(tau, dtype=float)
    if np.any(tau_arr < 0.0):
        raise ValueError("age since the last event cannot be negative")
    lam = np.asarray(sig.rate(t), dtype=float)
    out = lam * _occupation(sig, law, t, tau_arr)
    return float(out.ravel()[0]) if lam.ndim == 0 and tau_arr.ndim == 0 else out


def _table_step(law: DeadTimeLaw, lam: float) -> float:
    """Node step of an age table at rate ``lam``: 1/128 of the dead time's
    standard deviation or of the mean input interval, whichever is shorter."""
    scale = law.std()
    if lam > 0.0:
        scale = min(scale, 1.0 / lam)
    return scale / 128.0


def _saturation_node(law: DeadTimeLaw, lam: float, h: float) -> int | None:
    """First node ``k`` past which the law certifies ``1 - q <= _SATURATION`` at rate ``lam``.

    ``R(tau) = int_[tau, inf) exp(lam x) dF / int_[0, tau] exp(lam x) dF``
    bounds ``1 - q(tau) = S(tau)/E[F](tau)`` for every window whose rate
    stays at or below ``lam``: ``S(tau)`` is at most ``exp(-lam tau)`` times
    the numerator and ``E[F](tau)`` at least ``exp(-lam tau)`` times the
    denominator.  ``R`` falls as ``tau`` grows, so the first node with
    ``R(k h) <= _SATURATION`` certifies every later age.  Both integrals
    are the law's closed tilt; None where they cannot certify any age.
    """

    def saturated(k):
        tau = k * h
        s = lam * tau
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            r = law.tilted_integral(lam, tau, np.inf, s) / law.tilted_integral(lam, 0.0, tau, s)
        return r <= _SATURATION  # NaN (both integrals lost) certifies nothing

    # bracket the first saturated node between powers of two up to 2**32,
    # then narrow the bracket 64-fold per pass
    powers = 2.0 ** np.arange(33)
    hit = np.flatnonzero(saturated(powers))
    if not hit.size:
        return None
    lo, hi = (int(powers[hit[0] - 1]) if hit[0] else 0), int(powers[hit[0]])
    while hi - lo > 1:
        k = np.unique(np.linspace(lo, hi, 66).astype(np.int64))[1:-1]
        ok = saturated(k.astype(float))
        i = int(np.argmax(ok)) if np.any(ok) else k.size
        lo, hi = (int(k[i - 1]) if i else lo), (int(k[i]) if i < k.size else hi)
    return hi


class _OccupationTable:
    """Occupation at one constant input rate as a function of age alone.

    For a law under its closed form (``tilted_closed_form``).  Holds the
    exact ``_occupation`` at the ages ``k*h`` and interpolates between them
    with the four-point Lagrange cubic, evaluated in Newton's form.  The
    step ``h`` defaults to ``_table_step``, which keeps the error below
    ``_TABLE_BOUND`` (1e-8) for gamma laws of any order and rate; a finer
    step only lowers it.  The table is built whole when it is made, and
    every half-node ``k + 1/2`` is checked once against the exact value
    then; a miss raises ``NumericalError``.

    Nodes from ``saturation`` (``_saturation_node``) on read exactly 1.0,
    so the table holds at most ``saturation + 3`` nodes and every older age
    reads 1.0.  Where that exceeds ``_TABLE_MAX_NODES``, the table stops
    there and ages past it are evaluated exactly.
    """

    def __init__(self, law: DeadTimeLaw, lam: float, h: float | None = None):
        self.sig = Constant(lam)
        self.law = law
        self.h = _table_step(law, lam) if h is None else h
        self.saturation = _saturation_node(law, lam, self.h)
        self.saturates = self.saturation is not None and self.saturation + 3 <= _TABLE_MAX_NODES
        n = self.nodes = self.saturation + 3 if self.saturates else _TABLE_MAX_NODES
        cut = n if self.saturation is None else min(self.saturation, n)
        v = self.values = np.ones(n)
        v[:cut] = _occupation(self.sig, law, 0.0, np.arange(cut) * self.h)
        # Newton coefficients of the cubic on each stencil of four nodes
        d1 = np.diff(v)
        d2 = np.diff(d1) / 2.0
        d3 = np.diff(d2) / 3.0
        self.newton = np.stack([v[:-3], d1[:-2], d2[:-1], d3])
        # the half-node k + 1/2 reads nodes up to k + 2
        x = np.arange(n - 2) + 0.5
        exact = _occupation(self.sig, law, 0.0, x * self.h)
        miss = np.abs(self._interpolate(x, np.maximum(np.floor(x) - 1.0, 0.0)) - exact)
        worst = int(np.argmax(miss))
        if not miss[worst] <= _TABLE_BOUND:
            raise NumericalError(
                f"occupation table at rate {self.sig.level} misses the exact value by "
                f"{miss[worst]:.3g} at age {x[worst] * self.h:.6g}, over its {_TABLE_BOUND:g} bound"
            )

    def __call__(self, tau: np.ndarray) -> np.ndarray:
        x = tau / self.h
        j0 = np.maximum(np.floor(x) - 1.0, 0.0)
        inside = j0 + 4.0 <= self.nodes
        out = np.empty_like(tau)
        if not np.all(inside):
            far = ~inside
            out[far] = 1.0 if self.saturates else _occupation(self.sig, self.law, 0.0, tau[far])
            x, j0 = x[inside], j0[inside]
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


def _occupation_tables(sig, law, width: float | None = None) -> dict:
    """Age tables for the levels of ``sig`` at which the law has its closed form.

    Each table takes its own ``_table_step`` unless a bin ``width`` is
    given: then all share ``width/m``, with ``m`` the fewest nodes per bin
    that make the step no longer than any of theirs.  A level whose own
    step would lay more than ``_TABLE_MAX_NODES`` nodes in one bin then
    takes no table, so birth coordinates in nodes stay exact integers.
    """
    levels = [lam for lam in dict.fromkeys(sig.levels()) if law.tilted_closed_form(lam)
              and (width is None or width / _table_step(law, lam) <= _TABLE_MAX_NODES)]
    h = None
    if width is not None and levels:
        h = width / math.ceil(width / min(_table_step(law, lam) for lam in levels))
    return {lam: _OccupationTable(law, lam, h) for lam in levels}


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


def _switch_identity(x, surv, carried):
    """Occupation of a window across an upward switch: ``1 - x/(1 + c*x)``.

    ``x = 1 - q_lam1(tau)``, and ``c = carried/S(tau)`` with ``carried =
    exp(-lam1*(t - t_switch)) * D(a)``.  The survivor is multiplied
    through; where it underflows the dead time is over.  For ``D >= 0``
    the error is at most that of ``x``.
    """
    den = surv + carried * x
    with np.errstate(divide="ignore", invalid="ignore"):
        return 1.0 - np.where(den > 0.0, x * surv / den, 0.0)


def _table_occupation(sig, law, t, tau: np.ndarray, tables, excess=None) -> np.ndarray:
    """``_occupation(sig, law, t, tau)`` where the tables give it, NaN elsewhere.

    Windows at a tabulated level read its table.  Windows across the switch
    of a step read the post-switch table through ``_switch_identity``
    where ``excess`` holds their ``_switch_excess``.
    """
    t = np.broadcast_to(np.asarray(t, dtype=float), tau.shape)
    rate = sig.window_rate(t, tau)
    q = np.full(tau.shape, np.nan)
    for level, table in tables.items():
        at = rate == level
        q[at] = table(tau[at])
    if excess is not None:
        across = np.isnan(rate) & ~np.isnan(excess)
        if np.any(across):
            lam1, ts = sig.levels()[1], sig.switch_time()
            tau_a = tau[across]
            carried = np.exp(-lam1 * (t[across] - ts)) * excess[across]
            q[across] = _switch_identity(
                1.0 - tables[lam1](tau_a), np.asarray(law.survivor(tau_a), dtype=float), carried
            )
    return q


def _accept(sig, law, tables, t: np.ndarray, tau: np.ndarray, u: np.ndarray, lam_max: float,
            excess=None):
    """Thinning decisions ``u < hazard_pprd(sig, law, t, tau)``, by squeeze.

    Where the tables give the occupation (``_table_occupation``, with
    ``excess`` for windows across an upward switch), every proposal
    outside the band ``rate * (q_table -+ _SQUEEZE_MARGIN)`` is decided by
    it; the proposals inside the band, and windows without a table, take
    the exact hazard, so the decisions are the exact ones.
    """
    lam = np.asarray(sig.rate(t), dtype=float)
    q = _table_occupation(sig, law, t, tau, tables, excess)
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
        if not isinstance(self.components, (int, np.integer)) or self.components < 1:
            raise ValueError(f"need a whole number of components, at least one: {self.components!r}")
        if not (0.0 < self.bin_width < math.inf):
            raise ValueError("bin width must be positive and finite")
        t0, t1 = self.t_span
        if not (0.0 < t1 - t0 < math.inf):
            raise ValueError("time span must have positive, finite length")
        if not (0.0 < self.lambda_max < math.inf):
            raise ValueError("thinning bound must be positive and finite")

    @property
    def n_bins(self) -> int:
        t0, t1 = self.t_span
        return max(1, int(whole_steps(t1 - t0, self.bin_width)))

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


def _nonempty(ranges):
    """The segments ``idx``, with their bins ``[lo, hi)``, of the ranges that hold a bin."""
    parts = []
    for idx, lo, hi in ranges:
        keep = np.flatnonzero(hi > lo)
        parts.append((idx.take(keep), lo.take(keep), hi.take(keep)))
    return tuple(np.concatenate(col) for col in zip(*parts))


def _stencils(frac, sign) -> np.ndarray:
    """Rows of the four Lagrange weights, times ``sign``, of a cubic stencil
    read at offset ``1 + frac`` from its first node."""
    f = frac
    g = f - 1.0
    fg = f * g * sign
    he = (f + 1.0) * (f - 2.0) * sign
    w = np.empty((f.size, 4))
    np.multiply(fg, (f - 2.0) / -6.0, out=w[:, 0])
    np.multiply(he, g / 2.0, out=w[:, 1])
    np.multiply(he, f / -2.0, out=w[:, 2])
    np.multiply(fg, (f + 1.0) / 6.0, out=w[:, 3])
    return w


class _BirthSweep:
    """The occupation sums of a rejection run, ``q_sum`` and ``q_sq`` per bin.

    The sweep works in birth coordinates.  The table step ``h`` divides the
    bin width ``m`` times and the birth nodes sit at ``c_0 - k*h``, ``c_0``
    the first bin center.  A segment runs from one birth of a component
    (its initial age, then each event) to the next.  Its age at bin ``b``
    is ``(x + b*m)*h`` for a birth coordinate ``x``, so its table stencil
    keeps its four Lagrange weights and moves ``m`` nodes a bin.  One ring
    of weights over birth nodes takes those of the segments in the table's
    range as they start and end, and each bin dots it with the table
    shifted by ``b*m`` (with ``q**2`` for ``q_sq``).  Past an upward switch,
    births before it read ``_switch_identity`` on the nodes instead.

    Ages from a table's saturation node on count as 1.0 without entering
    the ring.  The rest is exact, element by element: a segment's first
    bin while its age is under one node, stencils that straddle the
    switch, windows across a downward switch, levels without a table, and
    ages between a capped table's last node and saturation.  Without
    tables every element is exact.
    """

    def __init__(self, sig, law, cfg, tables):
        self.sig, self.law, self.tables = sig, law, tables
        self.centers = cfg.bin_grid().times()
        self.width = cfg.bin_width
        n_bins = self.n_bins = cfg.n_bins
        # the centers between -inf and inf, for _first_bin's correction
        self.padded = np.concatenate(([-np.inf], self.centers, [np.inf]))
        self.q_sum = np.zeros(n_bins)
        self.q_sq = np.zeros(n_bins)
        self.pending = []
        ts = sig.switch_time()
        self.b_switch = n_bins if ts is None else int(np.searchsorted(self.centers, ts, side="right"))
        if not tables:
            return
        levels = sig.levels()
        self.h = next(iter(tables.values())).h
        self.m = round(cfg.bin_width / self.h)
        # ring length: the nodes of the longest table
        k = self.k = max(t.nodes for t in tables.values())

        def rows(lam):
            v = tables[lam].values if lam in tables else np.zeros(k)
            v = np.concatenate([v, np.ones(k - v.size)])  # 1.0 past a shorter table's end
            return np.stack([v, v * v])

        def sat(lam, exact):
            # stencil base floor(x) + b*m from which the ages are saturated
            s = tables[lam].saturation if lam in tables else None
            return exact if s is None else s + 1

        # every window's rate is at most the top level's
        self.sat_exact = sat(max(levels), _NEVER)
        self.pre = rows(levels[0])
        self.sat_pre = sat(levels[0], self.sat_exact)
        if ts is None:
            return
        lam1 = levels[1]
        self.post = rows(lam1)
        self.sat_post = sat(lam1, self.sat_exact)
        self.k_switch = (self.centers[0] - ts) / self.h
        self.closed = _closed_switch(sig, tables)
        if self.closed:
            # D at birth nodes before the switch; x and S at age nodes
            lo = math.floor(self.k_switch) + 1
            hi = max(k - self.b_switch * self.m, lo)
            self.excess = _switch_excess(sig, law, (np.arange(lo, hi) - self.k_switch) * self.h)
            self.x = 1.0 - self.post[0]
            self.surv = np.asarray(law.survivor(np.arange(k) * self.h), dtype=float)
            self.rows_now = self.post.copy()

    def _first_bin(self, t: np.ndarray) -> np.ndarray:
        """``np.searchsorted(self.centers, t)``: by arithmetic, then one
        correction of the rounding either way."""
        e = np.ceil((t - self.centers[0]) / self.width)
        e = np.clip(e, 0, self.n_bins, out=e).astype(np.int64)
        e -= self.padded.take(e) >= t
        e += self.padded.take(e + 1) < t
        return e

    def add(self, born: np.ndarray, end: np.ndarray) -> None:
        """Take the segments from ``born`` to ``end`` (inf while still running)."""
        self.pending.append((born, end))

    def flush(self, block: int) -> None:
        """Sweep the segments taken so far: ``block`` of them, and at most
        ``block`` exact elements, at a time."""
        born, end = (np.concatenate(col) for col in zip(*self.pending))
        self.pending = []
        exact, ring = zip(*(self._split(born[i : i + block], end[i : i + block])
                            for i in range(0, born.size, block)))
        del born, end
        self._exact(*(np.concatenate(col) for col in zip(*exact)), block)
        if self.tables:
            ring = [np.concatenate(col) for col in zip(*ring)]
            self._ring(*ring)

    def _split(self, born, end):
        """Count the saturated bins of segments; return the births and bins
        ``[lo, hi)`` to evaluate exactly, and the ring slot of each stencil's
        first node, its offset and the bins ``[start, stop)`` it spends in
        the ring."""
        lo, hi = self._first_bin(born), self._first_bin(end)
        if not self.tables:
            return (born, lo, hi), None
        n_bins, m, bsw = self.n_bins, self.m, self.b_switch
        x = (self.centers[0] - born) / self.h
        base = np.floor(x)
        frac = x - base
        base = base.astype(np.int64)
        levels = self.sig.levels()
        # (segments, first bin, bin past the last, whether their windows
        # read the ring, saturation base) of each regime
        if bsw >= n_bins:
            idx = np.flatnonzero(hi > lo)
            phases = [(idx, lo.take(idx), hi.take(idx), levels[0] in self.tables, self.sat_pre)]
        else:
            pre = np.flatnonzero(lo < np.minimum(hi, bsw))
            post = np.flatnonzero(hi > np.maximum(lo, bsw))
            phases = [(pre, lo.take(pre), np.minimum(hi.take(pre), bsw), levels[0] in self.tables, self.sat_pre)]
            b = base.take(post)
            # a stencil on one side of the switch reads the post-switch table,
            # or the identity; one across it stays exact
            tab = (b + 2 <= self.k_switch) & (levels[1] in self.tables)
            ring = tab | ((b - 1 >= self.k_switch) & self.closed)
            for mask, mode, sat in ((ring, True, self.sat_post), (~ring, False, self.sat_exact)):
                idx = post[mask]
                phases.append((idx, np.maximum(lo.take(idx), bsw), hi.take(idx), mode, sat))

        exact, rings, sats = [], [], []
        for idx, p0, p1, mode, sat in phases:
            b = base.take(idx)

            def reach(level):
                # first bin whose stencil base b + bin*m reaches ``level``
                return np.clip(-((b - level) // m), 0, n_bins)

            bs = reach(sat)
            if mode:
                by, br = reach(1), reach(self.k - 2)
                exact.append((idx, p0, np.minimum(p1, by)))
                rings.append((idx, np.maximum(p0, by), np.minimum(p1, br)))
                if sat > self.k - 2:
                    # a capped table: exact from its end to saturation
                    exact.append((idx, np.maximum(p0, br), np.minimum(p1, bs)))
                bs = np.maximum(bs, br)
            else:
                exact.append((idx, p0, np.minimum(p1, bs)))
            sats.append((np.maximum(p0, bs), p1))
        self._saturated(sats)
        seg, lo, hi = _nonempty(exact)
        exact = born.take(seg), lo, hi
        seg, start, stop = _nonempty(rings)
        # compact: the ring's inputs are held for the whole run
        first = (base.take(seg) - 1) % self.k
        return exact, (first.astype(np.int32), frac.take(seg), start.astype(np.int32), stop.astype(np.int32))

    def _exact(self, born, lo, hi, block: int) -> None:
        """Exact occupations of the segments born at ``born`` over their bins
        ``[lo, hi)``, ``block`` elements at a time."""
        count = np.maximum(hi - lo, 0)
        ends = np.cumsum(count)
        total = int(ends[-1]) if ends.size else 0
        for start in range(0, total, max(block, 1)):
            pos = np.arange(start, min(start + block, total))
            i = np.searchsorted(ends, pos, side="right")
            b = lo.take(i) + (pos - (ends.take(i) - count.take(i)))
            t = self.centers.take(b)
            q = _occupation(self.sig, self.law, t, t - born.take(i))
            self.q_sum += np.bincount(b, weights=q, minlength=self.n_bins)
            self.q_sq += np.bincount(b, weights=q * q, minlength=self.n_bins)

    def _saturated(self, ranges) -> None:
        """Count 1.0 for each segment over its bins ``[lo, hi)``."""
        diff = np.zeros(self.n_bins + 1)
        for lo, hi in ranges:
            keep = np.flatnonzero(hi > lo)
            diff += np.bincount(lo.take(keep), minlength=self.n_bins + 1)
            diff -= np.bincount(hi.take(keep), minlength=self.n_bins + 1)
        count = np.cumsum(diff[:-1])
        self.q_sum += count
        self.q_sq += count

    def _ring(self, first, frac, start, stop) -> None:
        """Dot each bin's ring with its table rows, the ring holding the
        stencil weights of each segment over its bins ``[start, stop)``."""
        if not start.size:
            return
        k, n_bins, m = self.k, self.n_bins, self.m
        # each segment arrives at its start and departs at its stop, in bin order
        arrive, depart = np.bincount(start, minlength=n_bins + 1), np.bincount(stop, minlength=n_bins + 1)
        held = np.cumsum(arrive - depart)
        bounds = np.concatenate(([0], np.cumsum(arrive + depart)))
        order = np.argsort(np.concatenate((start, stop)))
        ring = np.zeros(k + 3)
        group = int(start.min())
        for b in range(group, n_bins):
            if b == group:
                # the stencils of the next bins, about _GROUP of them, with the
                # ring slots of their nodes; the last three slots wrap
                group = max(b + 1, int(np.searchsorted(bounds, bounds[b] + _GROUP, side="right")) - 1)
                sel = order[bounds[b] : bounds[group]]
                seg = sel % start.size
                weight = _stencils(frac.take(seg), np.where(sel < start.size, 1.0, -1.0))
                slot = first.take(seg)[:, None] + np.arange(4)
                offset = bounds[b]
            i, j = bounds[b] - offset, bounds[b + 1] - offset
            if j > i:
                ring += np.bincount(slot[i:j].ravel(), weight[i:j].ravel(), minlength=k + 3)
            if not held[b]:
                continue
            ring[:3] += ring[k:]
            ring[k:] = 0.0
            rows = self._rows(b)
            # node b*m + i of the table meets ring slot i - b*m
            p = (-b * m) % k
            q, q2 = rows[:, : k - p] @ ring[p:k] + rows[:, k - p :] @ ring[:p]
            self.q_sum[b] += q
            self.q_sq[b] += q2

    def _rows(self, b: int) -> np.ndarray:
        """``q`` and ``q**2`` at the ring's nodes for bin ``b``, by age node."""
        if b < self.b_switch:
            return self.pre
        if not self.closed:
            return self.post
        # age nodes from ``cut`` on are births before the switch
        cut = min(math.floor(self.k_switch) + 1 + b * self.m, self.k)
        rows = self.rows_now
        rows[:, :cut] = self.post[:, :cut]
        if cut < self.k:
            lam1, ts = self.sig.levels()[1], self.sig.switch_time()
            carried = math.exp(-lam1 * (self.centers[b] - ts)) * self.excess[: self.k - cut]
            q = _switch_identity(self.x[cut:], self.surv[cut:], carried)
            rows[0, cut:] = q
            rows[1, cut:] = q * q
        return rows


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def _thin(sig: InputSignal, t: np.ndarray, ctr: np.ndarray, lam_max: float):
    """Acceptance of the proposals at ``t``, ``u*lam_max < rate(t)``, with
    ``u`` the next draw of ``ctr``; None where all are accepted.

    A proposal where the rate is at the bound is accepted whatever its
    draw, since ``u < 1``, so its uniform is never formed; every counter
    steps past the draw all the same.
    """
    lam = np.asarray(sig.rate(t), dtype=float)
    acc = lam >= lam_max
    if not acc.all():
        doubt = np.flatnonzero(~acc)
        acc[doubt] = _unit(ctr.take(doubt)) * lam_max < lam.take(doubt)
    ctr += _GOLDEN
    return None if acc.all() else acc


def simulate_generative(
    sig: InputSignal, law: DeadTimeLaw, cfg: SimConfig, return_events: bool = False
):
    """Sample the ensemble by drawing dead times and thinning the input.

    Components start from the stationary ensemble of the left-limit rate
    at the start of the span: active with the equilibrium probability and
    otherwise at a uniform position inside a length-biased dead time.
    With ``return_events`` the result is ``(estimate, (components, times))``
    sorted by component, then time.

    Each component draws, in order: its state, the length and the position
    of its initial dead time, then per proposal its waiting time, its
    acceptance uniform and, when accepted, its dead time.  A proposal where
    the input is at ``lambda_max`` is accepted whatever its draw, so that
    uniform is skipped, the counter still stepping past it; a constant
    input at the bound draws no acceptance uniforms at all.  Each round
    works on the components still inside the span only.
    """
    _validate_bound(sig, cfg)
    t0 = cfg.t_span[0]
    bw = cfg.bin_width
    n_bins = cfg.n_bins
    t_stop = t0 + n_bins * bw
    lam_max = cfg.lambda_max
    lam0 = float(sig.rate_left(t0))
    a_eq = stationary_active_fraction(lam0, law.mean())
    # a constant rate equal to the bound accepts every proposal, so the
    # acceptance draw can be skipped without changing the law of the output
    sure_accept = sig.levels() == (lam_max,)

    counts = np.zeros(n_bins, dtype=np.int64)
    dead_diff = np.zeros(n_bins + 1, dtype=np.int64)
    collect = [] if return_events else None

    for c_lo in range(0, cfg.components, _CHUNK):
        comp = np.arange(c_lo, min(c_lo + _CHUNK, cfg.components), dtype=np.int64)
        # the counter word of each component's next draw
        ctr = _component_keys(cfg.seed, comp)
        u_state = _draw(ctr)
        u_len = _draw(ctr)
        u_pos = _draw(ctr)
        residual = (1.0 - u_pos) * law.length_biased_quantile(u_len)
        blocked = u_state >= a_eq
        t = np.where(blocked, t0 + residual, t0)
        _mark_dead(dead_diff, t0, bw, n_bins, np.full(int(blocked.sum()), t0), t[blocked])

        # the live components, (comp, ctr, t), shrink as they leave the span;
        # one whose dead time ends past it leaves with its next proposal
        while comp.size:
            t = t - np.log1p(-_draw(ctr)) / lam_max
            inside = t < t_stop
            if not inside.all():
                comp, ctr, t = comp[inside], ctr[inside], t[inside]
                if not comp.size:
                    break
            acc = None if sure_accept else _thin(sig, t, ctr, lam_max)
            if acc is None:
                # every proposal is an event
                ids, t_ev, u_d = comp, t, _draw(ctr)
            else:
                hit = np.flatnonzero(acc)
                if not hit.size:
                    continue
                ids, t_ev, u_d = comp.take(hit), t.take(hit), _unit(ctr.take(hit))
                ctr[hit] += _GOLDEN
            counts += np.bincount(_bin_index(t_ev, t0, bw, n_bins), minlength=n_bins)
            if collect is not None:
                collect.append((ids, t_ev))
            t_end = t_ev + law.quantile(u_d)
            _mark_dead(dead_diff, t0, bw, n_bins, t_ev, t_end)
            if acc is None:
                t = t_end
            else:
                t[hit] = t_end

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
    a gamma law the sweep reads it from age tables in birth coordinates
    (``_BirthSweep``, within 1e-8 of the exact values).  The thinning
    decides by squeeze (``_accept``), across an upward switch through the
    switch identity: the same events as with the exact hazard alone.

    Each component draws its stationary age, then per proposal its
    waiting time and, while the proposal is inside the span, its
    acceptance uniform.
    """
    _validate_bound(sig, cfg)
    t0 = cfg.t_span[0]
    bw = cfg.bin_width
    n_bins = cfg.n_bins
    t_stop = t0 + n_bins * bw
    lam_max = cfg.lambda_max
    lam0 = float(sig.rate_left(t0))
    tables = _occupation_tables(sig, law, bw)
    sweep = _BirthSweep(sig, law, cfg, tables)
    ts = sig.switch_time() if _closed_switch(sig, tables) else None

    counts = np.zeros(n_bins, dtype=np.int64)
    collect = [] if return_events else None

    for c_lo in range(0, cfg.components, _CHUNK):
        comp = np.arange(c_lo, min(c_lo + _CHUNK, cfg.components), dtype=np.int64)
        # the counter word of each component's next draw
        ctr = _component_keys(cfg.seed, comp)
        last_ev = t0 - _stationary_age_quantile(law, lam0, _draw(ctr))
        t = np.full(comp.size, t0)
        # the last birth of each component, set as it leaves the span
        final = np.empty(comp.size)
        # D of each live component whose last event precedes the switch, once
        # a proposal of it is past the switch; ``crossing`` while any proposal
        # is not
        excess = None if ts is None else np.full(comp.size, np.nan)
        crossing = True

        # the live components, (comp, ctr, t, last_ev, excess), shrink as
        # they leave the span; only a proposal inside it draws its acceptance
        while comp.size:
            t = t - np.log1p(-_draw(ctr)) / lam_max
            inside = t < t_stop
            if not inside.all():
                final[comp[~inside] - c_lo] = last_ev[~inside]
                comp, ctr, t, last_ev = comp[inside], ctr[inside], t[inside], last_ev[inside]
                excess = None if excess is None else excess[inside]
                if not comp.size:
                    break
            if excess is not None and crossing:
                fresh = np.flatnonzero((t > ts) & (last_ev < ts) & np.isnan(excess))
                if fresh.size:
                    excess[fresh] = _switch_excess(sig, law, ts - last_ev.take(fresh))
                crossing = t.min() <= ts
            hit = np.flatnonzero(_accept(sig, law, tables, t, t - last_ev, _draw(ctr) * lam_max,
                                         lam_max, excess))
            if hit.size:
                t_ev = t.take(hit)
                counts += np.bincount(_bin_index(t_ev, t0, bw, n_bins), minlength=n_bins)
                if collect is not None:
                    collect.append((comp.take(hit), t_ev))
                # a segment ends at each event: from the component's previous birth
                sweep.add(last_ev.take(hit), t_ev)
                last_ev[hit] = t_ev

        # and one runs on from each component's last birth
        sweep.add(final, np.full(final.size, np.inf))
        sweep.flush(final.size)

    active_hat = sweep.q_sum / cfg.components
    spread = sweep.q_sq / cfg.components - active_hat**2
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
    # binned as the samplers bin; events outside [t_lo, t_lo + n*bw] are dropped
    inside = times[(times >= t_lo) & (times <= t_lo + bw * grid.n)]
    counts = np.bincount(_bin_index(inside, t_lo, bw, grid.n), minlength=grid.n)
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
