"""Closed forms for the constant-input process with a fixed dead time.

With a constant input rate ``lam`` and dead time ``d``, the inter-event
interval is a dead time followed by an exponential wait, and everything
downstream (convolution powers, the renewal density, the fundamental
solution of the delay equation, the exact step response) has an explicit
expression.  The renewal density is an exactly finite sum here because the
k-fold interval density has support ``[k*d, inf)``.

Note on naming: the renewal density (conditional event rate after an event
at time zero) is sometimes called the auto-correlation of the event train.
We expose it as :func:`renewal_density`.  Its formal expansion carries a
Dirac term at zero lag; that term is excluded from numeric evaluation, and
every consumer evaluates at strictly positive lags where it vanishes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (GammaDeadTime, History, NumericalError, TimeGrid, Trace, _wrap_scalar,
                   check_balance, simpson_weights, stationary_active_fraction)

__all__ = [
    "PpdParams",
    "interval_density",
    "kfold_interval_density",
    "renewal_density",
    "fundamental_solution",
    "equilibrium_active_fraction",
    "equilibrium_rate",
    "step_response",
    "solve_with_history",
]

#: Simpson cell target per dead time in the look-back superposition.
_NODES_PER_WINDOW = 1024


@dataclass(frozen=True)
class PpdParams:
    """Constant input rate and fixed dead time."""

    lam: float
    d: float

    def __post_init__(self):
        if not (self.lam >= 0.0) or not math.isfinite(self.lam):
            raise ValueError(f"rate must be finite and non-negative, got {self.lam}")
        if not (self.d >= 0.0) or not math.isfinite(self.d):
            raise ValueError(f"dead time must be finite and non-negative, got {self.d}")


def interval_density(p: PpdParams, t):
    """Density of the time between consecutive events of one component.

    Zero during the dead time, then an exponential decay starting at rate
    ``lam``.
    """
    return kfold_interval_density(p, 1, t)


def kfold_interval_density(p: PpdParams, k: int, t):
    """Density of the sum of ``k`` independent inter-event intervals.

    The sum is ``k`` dead times plus a gamma wait of ``k`` exponential
    stages at rate ``lam``, so it is supported on ``[k*d, inf)``.  ``k = 0``
    would be a Dirac delta and is rejected.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"fold count must be a positive integer, got {k}")
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("interval must be non-negative")
    gap = arr - k * p.d
    if p.lam == 0.0:
        return _wrap_scalar(t, np.zeros_like(arr))
    wait = GammaDeadTime(k - 1, p.lam).density(np.clip(gap, 0.0, None))
    return _wrap_scalar(t, np.where(gap >= 0.0, wait, 0.0))


def renewal_density(p: PpdParams, t):
    """Event rate at lag ``t`` after an event at lag zero.

    Sum of all k-fold interval densities; the sum is finite because terms
    with ``k > t/d`` have no support yet.  Past the mode ``k > lam*t + 1``
    the terms fall with ``k`` at every lag (or are zero, below ``k*d``), so
    the sum stops at the first term that changes the partial sum at no lag:
    no later term changes a bit, and a dead time far below ``1/lam`` costs
    a few dozen terms rather than ``t/d``.  For ``d == 0`` the process is
    plain Poisson and the value is ``lam`` at every positive lag.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("lag must be strictly positive")
    if p.d == 0.0:
        return _wrap_scalar(t, np.full_like(arr, p.lam))
    if p.lam == 0.0:
        return _wrap_scalar(t, np.zeros_like(arr))
    t_max = float(np.max(arr))
    kmax = int(np.floor(t_max / p.d + 1e-12))
    mode = p.lam * t_max + 1.0
    out = np.zeros_like(arr)
    for k in range(1, kmax + 1):
        term = kfold_interval_density(p, k, arr)
        if k > mode and np.all(out + term == out):
            break
        out += term
    return _wrap_scalar(t, out)


def fundamental_solution(p: PpdParams, t):
    """Delay-equation solution that is zero before time zero and one at it.

    Equals the renewal density at lag ``t + d``, scaled by ``1/lam``; the
    rescaling makes the value at zero exactly one.
    """
    if p.lam == 0.0:
        raise ValueError("fundamental solution needs a positive rate")
    arr = np.asarray(t, dtype=float)
    if p.d == 0.0:
        return _wrap_scalar(t, np.where(arr < 0.0, 0.0, 1.0))
    pos = np.clip(arr, 0.0, None)
    vals = np.asarray(renewal_density(p, pos + p.d)) / p.lam
    return _wrap_scalar(t, np.where(arr < 0.0, 0.0, vals))


def equilibrium_active_fraction(lam: float, d: float) -> float:
    """Stationary fraction of components outside their dead time."""
    if lam < 0.0 or d < 0.0:
        raise ValueError("rate and dead time must be non-negative")
    return stationary_active_fraction(lam, d)


def equilibrium_rate(lam: float, d: float) -> float:
    """Stationary ensemble event rate ``lam/(1 + lam*d)``."""
    return lam * equilibrium_active_fraction(lam, d)


def step_response(lam0: float, lam1: float, d: float, grid: TimeGrid) -> Trace:
    """Exact ensemble response to an input step ``lam0 -> lam1`` at time zero.

    The ensemble is in its ``lam0`` equilibrium for negative times; the grid
    must therefore start at or after the switch.  The active fraction is
    continuous at the switch while the ensemble rate jumps to ``lam1`` times
    the old equilibrium fraction, then rings at period ``d`` while settling
    into the new equilibrium.
    """
    if lam1 <= 0.0:
        raise ValueError("post-switch rate must be positive")
    if lam0 < 0.0 or d < 0.0:
        raise ValueError("rate and dead time must be non-negative")
    if grid.t0 < 0.0:
        raise ValueError("grid must start at or after the switch")
    p1 = PpdParams(lam1, d)
    t = grid.times()
    a0 = equilibrium_active_fraction(lam0, d)
    if d == 0.0:
        active = np.ones_like(t)
    else:
        r = np.asarray(renewal_density(p1, t + d))
        # grouped so the lam0 = 0 case (empty ensemble) stays finite
        active = (a0 / lam1) * (lam0 + (1.0 - lam0 / lam1) * r)
    return Trace(grid, active, lam1 * active)


def solve_with_history(
    lam: float,
    d: float,
    history: History,
    grid: TimeGrid,
) -> Trace:
    """Active fraction under constant rate ``lam`` from an arbitrary start state.

    Superposes the fundamental solution over the pre-start window: the value
    carried forward from the start plus the still-arriving releases of
    components that fired during the final look-back window.  The history
    supplies both its active fraction and its own event rate, so the rate in
    force before the start need not equal ``lam``.

    The history must satisfy the occupation normalization at the start time
    (look-back rate integral plus active fraction equal to one, by
    :meth:`History.balance`); a gap beyond 1e-6 raises :class:`ValueError`.
    """
    if lam <= 0.0:
        raise ValueError("rate must be positive")
    if d < 0.0:
        raise ValueError("dead time must be non-negative")
    if grid.t0 < 0.0:
        raise ValueError("grid must start at or after time zero")
    p = PpdParams(lam, d)
    if d == 0.0:
        t = grid.times()
        return Trace(grid, np.ones_like(t), np.full_like(t, lam))
    check_balance(history.balance(0.0, d), 1e-6)

    u0 = float(history.active(0.0))
    t = grid.times()
    active = np.empty_like(t)
    h_target = d / _NODES_PER_WINDOW
    for i, ti in enumerate(t):
        # value carried from the start
        acc = u0 * float(fundamental_solution(p, ti))
        # contributions of events inside the look-back window, released at
        # s - d + (dead time) and propagated by the fundamental solution;
        # g(ti - s) vanishes for s > ti, and has kinks wherever ti - s
        # crosses a multiple of d, so the quadrature splits there
        hi = min(d, ti)
        if hi > 0.0:
            cuts = [0.0, hi]
            k_lo = int(np.ceil((ti - hi) / d - 1e-12))
            k_hi = int(np.floor(ti / d + 1e-12))
            for k in range(k_lo, k_hi + 1):
                s_star = ti - k * d
                if 1e-15 < s_star < hi - 1e-15:
                    cuts.append(s_star)
            cuts = np.unique(np.asarray(cuts))
            for a, b in zip(cuts[:-1], cuts[1:]):
                m = max(int(np.ceil((b - a) / h_target)), 2)
                m += m % 2
                s = np.linspace(a, b, m + 1)
                nu_hist = history.sample_rate(s - d)
                g = np.asarray(fundamental_solution(p, ti - s))
                acc += float(simpson_weights(m, (b - a) / m) @ (nu_hist * g))
        active[i] = acc
    if np.any(active < -1e-9) or np.any(active > 1.0 + 1e-9):
        raise NumericalError("reconstructed active fraction left [0, 1]")
    return Trace(grid, np.clip(active, 0.0, 1.0), lam * np.clip(active, 0.0, 1.0))
