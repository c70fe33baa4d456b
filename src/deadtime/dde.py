"""Forward integration of the active-fraction dynamics.

Two integrators live here.  ``integrate_ppd`` advances the fixed-dead-time
balance A'(t) = nu(t - d) - nu(t), stepping with the classical four-stage
Runge-Kutta rule; because the step divides the delay exactly, every delayed
read lands on a buffered sample and no interpolation of the delayed term is
needed.  ``integrate_pprd`` advances the distributed-memory variant
A'(t) = -lam(t) A(t) + int rho(x) nu(t - x) dx, with the memory integral
evaluated by trapezoid quadrature against buffered samples.

Both integrators record the solution at half-step resolution: the value at
the midpoint of each step is reconstructed by cubic Hermite interpolation
from the step endpoints and one-sided derivatives, which keeps the delayed
reads of later windows accurate to the order of the stepper itself.

``normalization_residual`` audits the occupation-balance invariant
A(t) + int nu(t') F(t - t') dt' = 1 (with F the dead-time survivor) on a
finished trace; it is the conservation check for everything above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DeadTimeLaw,
    History,
    InputSignal,
    NumericalError,
    TimeGrid,
    Trace,
    check_balance,
    equilibrium_history,
    simpson_weights,
)

__all__ = [
    "integrate_ppd",
    "integrate_pprd",
    "normalization_residual",
    "ResidualSeries",
]

_STIFFNESS_LIMIT = 0.1


def _stiffness_guard(sig: InputSignal, grid: TimeGrid) -> None:
    lam_max = sig.max_rate(grid.t0, grid.t_end)
    if lam_max * grid.dt > _STIFFNESS_LIMIT:
        raise ValueError(
            f"step {grid.dt} too large for peak rate {lam_max}: "
            f"need rate*dt <= {_STIFFNESS_LIMIT}"
        )


def _buffers(sig: InputSignal, history: History, grid: TimeGrid, cells: int):
    """Half-step buffers reaching ``cells`` steps back before ``grid.t0``.

    Returns the buffer index of ``t0``, the right and left input rates, the
    event rate with the history filled in up to ``t0``, and the active
    fraction holding only its start value.
    """
    off = 2 * cells
    size = off + 2 * (grid.n - 1) + 1
    half_times = grid.t0 + 0.5 * grid.dt * (np.arange(size) - off)
    lam_r = np.asarray(sig.rate(half_times), dtype=float)
    lam_l = np.asarray(sig.rate_left(half_times), dtype=float)
    nu = np.empty(size)
    nu[: off + 1] = history.sample_rate(half_times[: off + 1])
    aa = np.empty(size)
    aa[off] = float(history.active(grid.t0))
    return off, lam_r, lam_l, nu, aa


def _finish_trace(grid: TimeGrid, off: int, aa: np.ndarray, lam_r: np.ndarray) -> Trace:
    a_nodes, lam_nodes = aa[off::2], lam_r[off::2]
    lo, hi = float(np.min(a_nodes)), float(np.max(a_nodes))
    if lo < -1e-9 or hi > 1.0 + 1e-9:
        raise NumericalError(
            "active fraction left [0, 1]", condition=max(-lo, hi - 1.0)
        )
    a = np.clip(a_nodes, 0.0, 1.0)
    return Trace(grid, a, lam_nodes * a)


def integrate_ppd(
    sig: InputSignal,
    d: float,
    history: History | None,
    grid: TimeGrid,
) -> Trace:
    """Integrate the fixed-dead-time dynamics on ``grid``.

    The step must divide the dead time: ``grid.dt = d/m`` with integer
    ``m >= 64``.  ``history`` supplies the pair (A, nu) on ``[t0 - d, t0]``
    and must satisfy the occupation normalization at ``t0`` within 1e-9;
    ``None`` selects the equilibrium for the left-limit rate at ``t0``.
    """
    if not (d > 0.0):
        raise ValueError(f"dead time must be positive, got {d}")
    h = grid.dt
    m = int(round(d / h))
    if m < 64 or abs(m * h - d) > 1e-9 * d:
        raise ValueError(
            f"step {h} must divide the dead time {d} with at least 64 steps "
            "per window"
        )
    _stiffness_guard(sig, grid)
    if history is None:
        history = equilibrium_history(float(sig.rate_left(grid.t0)), d)
    check_balance(history.balance(grid.t0, d), 1e-9)

    n_steps = grid.n - 1
    hh = 0.5 * h
    off, lam_r, lam_l, nu, aa = _buffers(sig, history, grid, m)
    a0 = float(aa[off])
    # the read that closes a delay window needs the left limit of the
    # event rate, which differs from the stored right limit at rate jumps;
    # the history and the left start value seed it
    nu_left = np.empty_like(nu)
    nu_left[: off + 1] = nu[: off + 1]
    nu[off] = lam_r[off] * a0

    h6 = h / 6.0
    h8 = h / 8.0
    for p in range(0, 2 * n_steps, 2):
        w = p + off
        a = aa[w]
        g1 = nu[p]
        k1 = g1 - lam_r[w] * a
        gm = nu[p + 1]
        lam_m = lam_r[w + 1]
        k2 = gm - lam_m * (a + hh * k1)
        k3 = gm - lam_m * (a + hh * k2)
        g4 = nu_left[p + 2]
        lam_e = lam_l[w + 2]
        k4 = g4 - lam_e * (a + h * k3)
        a1 = a + h6 * (k1 + 2.0 * (k2 + k3) + k4)
        d1 = g4 - lam_e * a1
        a_mid = 0.5 * (a + a1) + h8 * (k1 - d1)
        aa[w + 1] = a_mid
        aa[w + 2] = a1
        nu[w + 1] = lam_r[w + 1] * a_mid
        nu[w + 2] = lam_r[w + 2] * a1
        nu_left[w + 2] = lam_e * a1

    return _finish_trace(grid, off, aa, lam_r)


def integrate_pprd(
    sig: InputSignal,
    law: DeadTimeLaw,
    history: History | None,
    grid: TimeGrid,
) -> Trace:
    """Integrate the distributed-dead-time dynamics on ``grid``.

    The memory kernel is the dead-time density truncated at its
    ``1 - 1e-12`` quantile, with the clipped mass folded into the last
    quadrature node; an atom at zero re-activates its mass fraction
    instantly and therefore acts through the local coefficient.  The step
    must resolve the window: ``grid.dt <= window/256``.  A law with a
    ``fixed_duration`` delegates to :func:`integrate_ppd`, whose stricter
    grid rules then apply.  ``history`` must meet the occupation balance
    within 1e-6, by survivor-weighted Simpson on the buffered half steps;
    ``None`` selects the equilibrium for the left-limit rate at ``t0``.
    """
    if law.fixed_duration is not None:
        return integrate_ppd(sig, law.fixed_duration, history, grid)

    window = law.support_window()
    if not (window > 0.0):
        raise ValueError("dead-time law has no positive support window")
    h = grid.dt
    if h > window / 256.0 * (1.0 + 1e-12):
        raise ValueError(
            f"step {h} too coarse for the {window:.6g}-long memory window: "
            "need at least 256 cells"
        )
    _stiffness_guard(sig, grid)
    if history is None:
        history = equilibrium_history(float(sig.rate_left(grid.t0)), law.mean())

    n_cells = int(np.ceil(window / h - 1e-12))
    x = h * np.arange(n_cells + 1)
    kern = np.asarray(law.density(x), dtype=float) * h
    kern[0] *= 0.5
    kern[-1] *= 0.5
    kern[-1] += float(law.survivor(x[-1]))  # folded truncation mass
    # the sampled kernel must carry exactly the continuous mass fraction,
    # or constants stop being fixed points and every run drifts at a rate
    # set by the quadrature's mass defect; the defect is known, remove it
    atom = float(law.atom0)
    kern *= (1.0 - atom) / float(np.sum(kern))
    # the x = 0 node acts on the not-yet-buffered current value, so it joins
    # the local coefficient together with the instant re-activation atom;
    # buffered reads start at x = h
    local = atom + kern[0]
    tail = kern[1:][::-1].copy()

    n_steps = grid.n - 1
    hh = 0.5 * h
    off, lam_r, lam_l, nu, aa = _buffers(sig, history, grid, n_cells)
    a0 = float(aa[off])
    if not (-1e-9 <= a0 <= 1.0 + 1e-9):
        raise ValueError(f"history active fraction {a0} outside [0, 1]")
    # rescaled to carry the mean, as the kernel its mass; the scheme keeps the balance to O(h^2)
    surv = simpson_weights(2 * n_cells, hh) * law.survivor(hh * np.arange(2 * n_cells + 1))
    check_balance(a0 + float((surv * (law.mean() / surv.sum()))[::-1] @ nu[: off + 1]), 1e-6)
    # quadrature reads can hit rate jumps exactly; the correct trapezoid
    # split weights both one-sided values equally, so buffered samples at
    # jump nodes store the average of the two limits
    lam_avg = 0.5 * (lam_l + lam_r)
    nu[off] = 0.5 * (nu[off] + lam_r[off] * a0)

    c_r = lam_r * (local - 1.0)
    c_l = lam_l * (local - 1.0)

    h6 = h / 6.0
    h8 = h / 8.0
    t_end = tail @ nu[0 : 2 * n_cells - 1 : 2]
    for p in range(0, 2 * n_steps, 2):
        w = p + off
        a = aa[w]
        k1 = c_r[w] * a + t_end
        conv_m = tail @ nu[p + 1 : w : 2]
        k2 = c_r[w + 1] * (a + hh * k1) + conv_m
        k3 = c_r[w + 1] * (a + hh * k2) + conv_m
        conv4 = tail @ nu[p + 2 : w + 1 : 2]
        k4 = c_l[w + 2] * (a + h * k3) + conv4
        a1 = a + h6 * (k1 + 2.0 * (k2 + k3) + k4)
        d1 = c_l[w + 2] * a1 + conv4
        a_mid = 0.5 * (a + a1) + h8 * (k1 - d1)
        aa[w + 1] = a_mid
        aa[w + 2] = a1
        nu[w + 1] = lam_avg[w + 1] * a_mid
        nu[w + 2] = lam_avg[w + 2] * a1
        t_end = conv4

    return _finish_trace(grid, off, aa, lam_r)


@dataclass(frozen=True)
class ResidualSeries:
    """Occupation-balance residual sampled along a trace tail."""

    times: np.ndarray
    values: np.ndarray

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


def normalization_residual(
    trace: Trace, sig: InputSignal, law: DeadTimeLaw
) -> ResidualSeries:
    """Audit A(t) + int nu(t') F(t - t') dt' - 1 along a finished trace.

    The memory integral is evaluated on the trace grid with the law's
    ``survivor_weights``: trapezoid over the sharp window of a fixed dead
    time, Simpson weights against a smooth survivor otherwise.  The
    residual can only be formed once the trace is at least one memory
    window long.  The event rate is rebuilt from the
    input signal and the traced active fraction rather than read back,
    making the audit independent of the stored rate column.
    """
    h = trace.grid.dt
    times = trace.grid.times()
    nu = np.asarray(sig.rate(times), dtype=float) * trace.active

    kernel = law.survivor_weights(h)
    n_cells = kernel.size - 1
    if trace.grid.n <= n_cells:
        raise ValueError(
            f"trace too short to audit: need more than {n_cells} samples, "
            f"got {trace.grid.n}"
        )
    mem = np.convolve(nu, kernel, mode="valid")
    r = trace.active[n_cells:] + mem - 1.0
    return ResidualSeries(times=times[n_cells:], values=r)
