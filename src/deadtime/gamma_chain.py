"""Finite state-space reduction for gamma-distributed dead times.

When the dead time is gamma with integer kernel order ``n`` and rate
``beta``, the ensemble dynamics close into ``n + 2`` ordinary differential
equations: auxiliary states ``b_0 .. b_n`` (filtered copies of the event
rate, units 1/s) plus the active fraction ``A``.  The state ordering
``(b_0, ..., b_n, A)`` is fixed and part of the tested interface.

The weighted sum ``A + (b_0 + ... + b_n)/beta`` equals one along every
trajectory; both integrators below preserve it to machine precision because
it is an exact left null vector of the generator.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import InputSignal, NumericalError, TimeGrid, Trace

__all__ = [
    "ChainState",
    "build_generator",
    "conserved_functional",
    "equilibrium_state",
    "matrix_exponential",
    "step_response",
    "integrate",
]


@dataclass(frozen=True, eq=False)
class ChainState:
    """State vector ``(b_0, ..., b_n, A)`` of the gamma chain."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("state needs at least two entries (b_0 and A)")
        if not np.all(np.isfinite(v)):
            raise ValueError("state entries must be finite")
        if np.any(v[:-1] < -1e-9):
            raise ValueError("auxiliary states must be non-negative")
        if not (-1e-9 <= v[-1] <= 1.0 + 1e-9):
            raise ValueError(f"active fraction {v[-1]} outside [0, 1]")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size - 2

    @property
    def active(self) -> float:
        return float(self.values[-1])

    @property
    def aux(self) -> np.ndarray:
        return self.values[:-1]


def conserved_functional(state: ChainState, beta: float) -> float:
    """Weighted occupation sum that every trajectory keeps at one."""
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    return state.active + float(np.sum(state.aux)) / beta


def _check_params(n, beta):
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"kernel order must be a non-negative integer, got {n}")
    if not (beta > 0.0) or not math.isfinite(beta):
        raise ValueError(f"beta must be positive and finite, got {beta}")


def build_generator(n: int, beta: float, lam: float) -> np.ndarray:
    """Generator matrix of the chain for a constant input rate.

    Row ``0``: ``beta*lam*A - beta*b_0``; rows ``1..n``:
    ``beta*(b_{k-1} - b_k)``; last row: ``b_n - lam*A``.
    """
    _check_params(n, beta)
    if lam < 0.0:
        raise ValueError("rate must be non-negative")
    m = np.zeros((n + 2, n + 2))
    m[0, 0] = -beta
    m[0, n + 1] = beta * lam
    for k in range(1, n + 1):
        m[k, k - 1] = beta
        m[k, k] = -beta
    m[n + 1, n] = 1.0
    m[n + 1, n + 1] = -lam
    return m


def equilibrium_state(n: int, beta: float, lam: float) -> ChainState:
    """Stationary chain state: all auxiliary states at the equilibrium rate.

    The equilibrium event rate is ``1/(1/lam + mean)`` with mean dead time
    ``(n+1)/beta``; the active fraction is one minus rate times mean.
    """
    _check_params(n, beta)
    if lam < 0.0:
        raise ValueError("rate must be non-negative")
    v = np.zeros(n + 2)
    if lam == 0.0:
        v[-1] = 1.0
        return ChainState(v)
    mean = (n + 1) / beta
    nu = 1.0 / (1.0 / lam + mean)
    v[:-1] = nu
    v[-1] = 1.0 - nu * mean
    return ChainState(v)


def matrix_exponential(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Taylor series.

    The matrix is halved until its 1-norm is at most 0.5, the series of
    ``E = exp - I`` is summed through the 20th power, and ``E`` is squared
    back as ``E <- 2E + E @ E``.  At that norm the series remainder is below
    1e-26, far under double precision.  Squaring ``E`` rather than ``I + E``
    keeps slow modes from rounding against the identity (Moler & Van Loan,
    SIAM Review 45, 2003).  A matrix with an entry past double precision
    raises :class:`NumericalError`.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("need a square matrix")
    norm = float(np.linalg.norm(m, 1))
    if not math.isfinite(norm):
        raise NumericalError(f"gamma chain generator overflows: its step has 1-norm {norm}")
    squarings = 0
    if norm > 0.5:
        squarings = int(math.ceil(math.log2(norm / 0.5)))
    x = m / (2.0**squarings)
    out = np.zeros_like(x)
    term = np.eye(m.shape[0])
    for k in range(1, 21):
        term = term @ x / k
        out += term
    for _ in range(squarings):
        out = 2.0 * out + out @ out
    return out + np.eye(m.shape[0])


def step_response(
    n: int, beta: float, lam0: float, lam1: float, grid: TimeGrid
) -> Trace:
    """Ensemble response to an input step ``lam0 -> lam1`` at time zero.

    Starts from the ``lam0`` equilibrium and propagates with the matrix
    exponential of the ``lam1`` generator, one grid step at a time.
    """
    _check_params(n, beta)
    if lam1 <= 0.0:
        raise ValueError("post-switch rate must be positive")
    if grid.t0 < 0.0:
        raise ValueError("grid must start at or after the switch")
    m = build_generator(n, beta, lam1)
    b = equilibrium_state(n, beta, lam0).values.copy()
    if grid.t0 > 0.0:
        # the lead-in moves the distance from the lam1 equilibrium, which has no
        # weight on the conserved mode whose rounding a long exponential doubles
        eq = equilibrium_state(n, beta, lam1).values
        b = eq + matrix_exponential(m * grid.t0) @ (b - eq)
    prop = matrix_exponential(m * grid.dt)
    nxt = np.empty_like(b)
    active = np.empty(grid.n)
    for i in range(grid.n):
        active[i] = b[-1]
        np.dot(prop, b, out=nxt)
        b, nxt = nxt, b
    return Trace(grid, active, lam1 * active)


def integrate(
    n: int,
    beta: float,
    sig: InputSignal,
    b0: ChainState,
    grid: TimeGrid,
    return_final_state: bool = False,
):
    """Classical fourth-order time stepping with a time-dependent input rate.

    The step must satisfy ``(max rate + beta) * dt <= 0.1``; larger steps are
    rejected rather than silently under-resolved.  With
    ``return_final_state`` the result is a ``(trace, state)`` pair, which
    lets callers audit the conserved occupation sum after long runs.

    The stepper works in preallocated buffers and keeps the bits of the
    stage form ``k = m_base @ x + (lam * x[-1]) * k_col``: the matvec is
    the same BLAS call (``np.dot`` into a buffer), and the rank-one input
    term, nonzero only in entries ``0`` and ``n + 1``, is added there as
    two scalar updates.
    """
    _check_params(n, beta)
    if b0.n != n:
        raise ValueError(f"state has kernel order {b0.n}, expected {n}")
    lam_max = sig.max_rate(grid.t0, grid.t_end)
    if (lam_max + beta) * grid.dt > 0.1 + 1e-12:
        raise ValueError(
            f"step {grid.dt} too large: need (max rate + beta)*dt <= 0.1, "
            f"got {(lam_max + beta) * grid.dt:.3g}"
        )
    gap = abs(conserved_functional(b0, beta) - 1.0)
    if gap > 1e-9:
        raise ValueError(f"initial state breaks the occupation sum by {gap:.3e}")

    m_base = build_generator(n, beta, 0.0)
    last = n + 1
    h = grid.dt
    # the step's factors as 0-d arrays, which ufuncs take faster than floats
    half, full, two, sixth = (np.array(c) for c in (0.5 * h, h, 2.0, h / 6.0))
    b = b0.values.copy()
    x, k1, k2, k3, k4 = (np.empty(n + 2) for _ in range(5))

    def deriv(lam, y, out):
        np.dot(m_base, y, out=out)
        s = lam * y[last]
        out[0] += s * beta
        out[last] -= s

    t = grid.times()
    # input rates at the nodes, and at the half- and next nodes of each step
    at = sig.rate(t)
    mid, end = (sig.rate(s).tolist() for s in (t[:-1] + 0.5 * h, t[:-1] + h))
    active = np.empty(grid.n)
    for i, lam in enumerate(at.tolist()):
        active[i] = b[last]
        if i == grid.n - 1:
            break
        deriv(lam, b, k1)
        np.multiply(k1, half, out=x)
        deriv(mid[i], np.add(b, x, out=x), k2)
        np.multiply(k2, half, out=x)
        deriv(mid[i], np.add(b, x, out=x), k3)
        np.multiply(k3, full, out=x)
        deriv(end[i], np.add(b, x, out=x), k4)
        # b + (h/6) * (k1 + 2 k2 + 2 k3 + k4), summed in that order
        k1 += np.multiply(k2, two, out=k2)
        k1 += np.multiply(k3, two, out=k3)
        k1 += k4
        k1 *= sixth
        b += k1
    trace = Trace(grid, active, at * active)
    if return_final_state:
        return trace, ChainState(b)
    return trace
