"""Periodic steady states of the refractory ensemble in the Fourier domain.

For a periodic input rate with spectrum ``Lambda`` the stationary active
fraction and output rate are Fourier series.  The refractory window enters
only through coupling coefficients ``q_k`` (the Fourier footprint of the
dead-time survivor function): the active-fraction coefficients ``alpha``
solve

    alpha_k + q_k * sum_l Lambda_l alpha_{k-l} = delta_{k,0}

and the output coefficients follow either as the convolution
``beta = Lambda * alpha`` or as ``beta_k = (delta_{k,0} - alpha_k)/q_k``
where ``q_k`` is nonzero.

Two independent solvers ship on purpose.  The truncated dense solve works
for any band-limited input and is the reference; the continued-fraction
recursion is the fast path for pure cosine drive.  Each is used to test the
other.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (MAX_TRUNCATION, DeadTimeLaw, NumericalError, Spectrum, TimeGrid, Trace,
                   hermitian, stationary_active_fraction)

__all__ = [
    "HarmonicSystem",
    "qk_array",
    "solve_active_spectrum",
    "output_spectrum",
    "infer_input_spectrum",
    "cosine_continued_fraction",
    "periodic_rate",
]

#: Coupling coefficients smaller than this are treated as exact zeros
#: (resonant harmonics where the refractory window spans whole drive
#: periods).
Q_ZERO = 1e-12
#: Condition number above which input inference refuses to invert.
_COND_LIMIT = 1e12
#: Relative settling of the continued fraction's bottom ratio, and the
#: highest harmonic it reports.
_CF_TOL = 1e-13
_CF_MAX_ORDER = 512


def qk_array(law: DeadTimeLaw, omega: float, kmax: int) -> np.ndarray:
    """Coefficients ``q_k`` for ``k = -kmax .. kmax`` (Hermitian by symmetry), each
    evaluated afresh by :meth:`DeadTimeLaw.survivor_transform`; ``q_0`` is the mean."""
    if kmax < 0:
        raise ValueError("kmax must be non-negative")
    return _grow(law, omega, np.empty(0, dtype=complex), kmax)


def _grow(law: DeadTimeLaw, omega: float, q: np.ndarray, kmax: int) -> np.ndarray:
    """The ladder ``q`` of ``q_k`` over ``|k| <= n`` grown to ``|k| <= kmax``.

    Only the harmonics past ``n`` are evaluated, all of them from an empty
    ladder, so one problem evaluates each ``q_k`` once.  That is exact: a
    law's ``survivor_transform`` gives a harmonic the same bits whatever
    other harmonics it is asked with.
    """
    if not (omega > 0.0):
        raise ValueError("angular frequency must be positive")
    n = q.size // 2
    start = n + 1 if q.size else 0
    if kmax < start:
        return q
    half = np.concatenate((q[n:], law.survivor_transform(omega, range(start, kmax + 1))))
    return np.concatenate((half[:0:-1].conj(), half))


@dataclass(frozen=True, eq=False)
class HarmonicSystem:
    """Truncated harmonic coupling problem for one periodic scenario.

    Holds the base angular frequency, the truncation order ``K``, the
    dead-time law, the input spectrum, and the ladder ``q`` of coupling
    coefficients ``q_k``, built for ``|k| <= 2K`` (enough for the output
    convolution and the inverse map).  A solve that doubles past ``2K``
    leaves its longer ladder here, read-only, so the output cross-check
    covers the whole solved band and ``periodic_rate`` evaluates no harmonic
    twice.  Each ``q_k`` has the same bits in every ladder, so any ladder is
    a valid prefix of a longer one and threads may share one system.
    """

    omega: float
    K: int
    law: DeadTimeLaw
    input_spectrum: Spectrum
    q: np.ndarray = field(init=False)

    def __post_init__(self):
        if not (self.omega > 0.0):
            raise ValueError("angular frequency must be positive")
        if not isinstance(self.K, (int, np.integer)) or self.K < 1:
            raise ValueError("truncation order must be a positive integer")
        if abs(self.input_spectrum.omega - self.omega) > 1e-9 * self.omega:
            raise ValueError("input spectrum frequency does not match the system")
        q = qk_array(self.law, self.omega, 2 * self.K)
        q.setflags(write=False)
        object.__setattr__(self, "q", q)


def _input_band(spectrum: Spectrum) -> int:
    mags = np.abs(spectrum.coeffs)
    nonzero = np.nonzero(mags > 0.0)[0]
    if nonzero.size == 0:
        return 0
    order = spectrum.order
    return int(max(abs(int(i) - order) for i in nonzero))


def _padded_coefficients(spectrum: Spectrum, halfwidth: int) -> np.ndarray:
    """Coefficient lookup table over ``-halfwidth .. halfwidth``, zero outside."""
    out = np.zeros(2 * halfwidth + 1, dtype=complex)
    o = spectrum.order
    lo = max(-halfwidth, -o)
    hi = min(halfwidth, o)
    out[lo + halfwidth : hi + halfwidth + 1] = spectrum.coeffs[lo + o : hi + o + 1]
    return out


def _conditioned_solve(mat, rhs, limit: float, failure: str):
    """Solution of ``mat @ x = rhs`` and the 1-norm condition number of ``mat``.

    A condition number beyond ``limit``, or one that cannot be formed,
    raises :class:`NumericalError` with ``failure`` as its message.
    """
    try:
        cond = float(abs(np.linalg.cond(mat, 1)))
    except np.linalg.LinAlgError:
        cond = math.inf
    if not math.isfinite(cond) or cond > limit:
        raise NumericalError(f"{failure} (cond {cond:.3e})", condition=cond)
    return np.linalg.solve(mat, rhs), cond


def _solve_truncated(q: np.ndarray, K: int, spectrum: Spectrum) -> np.ndarray:
    """Active-fraction coefficients at truncation ``K`` over a ladder reaching ``K``."""
    k_range = np.arange(-K, K + 1)
    size = k_range.size
    lam_pad = _padded_coefficients(spectrum, 2 * K)
    diff = k_range[:, None] - k_range[None, :]
    q_rows = q[k_range + q.size // 2]
    q_rows[np.abs(q_rows) <= Q_ZERO] = 0.0
    mat = np.eye(size, dtype=complex) + q_rows[:, None] * lam_pad[diff + 2 * K]
    rhs = np.zeros(size, dtype=complex)
    rhs[K] = 1.0
    failure = "truncated harmonic system is numerically singular"
    return _conditioned_solve(mat, rhs, 1e14, failure)[0]


def solve_active_spectrum(sys: HarmonicSystem) -> Spectrum:
    """Spectrum of the active fraction by truncated dense solve.

    The truncation is doubled until all coefficients in the outer half of
    the band are below 1e-12, so the returned spectrum is insensitive to the
    starting ``K``.  Each doubling grows the system's own ladder of ``q_k``.
    """
    band = _input_band(sys.input_spectrum)
    if band > 0 and sys.K < 4 * band:
        raise ValueError(
            f"truncation {sys.K} too small for input band {band}; need at least {4 * band}"
        )
    q, K = sys.q, sys.K
    while True:
        q = _grow(sys.law, sys.omega, q, K)
        alpha = _solve_truncated(q, K, sys.input_spectrum)
        tail = np.abs(alpha[np.abs(np.arange(-K, K + 1)) > K // 2])
        if tail.size == 0 or float(np.max(tail)) < 1e-12:
            if q.size > sys.q.size:
                q.setflags(write=False)
                object.__setattr__(sys, "q", q)
            return Spectrum(sys.omega, alpha, tol=1e-8)
        if K >= MAX_TRUNCATION:
            raise NumericalError(
                f"active-fraction spectrum did not decay within truncation {MAX_TRUNCATION}"
            )
        K *= 2


def output_spectrum(sys: HarmonicSystem, alpha: Spectrum) -> Spectrum:
    """Output-rate spectrum ``beta`` from the active-fraction spectrum.

    Computed as the convolution of the input spectrum with ``alpha``; where
    the coupling coefficient is nonzero the alternative closed form
    ``(delta - alpha_k)/q_k`` must agree, and a disagreement flags an
    assembly bug rather than a user error.
    """
    lam = sys.input_spectrum
    ka, kl = alpha.order, lam.order
    out_order = ka + kl
    beta = np.convolve(lam.coeffs, alpha.coeffs)
    assert beta.size == 2 * out_order + 1
    # cross-check against the direct form inside the solved band, as the
    # residual of alpha_k + q_k beta_k = delta_k: a short dead time's
    # cancellation in delta - alpha_k is not divided by q_k; the bound is
    # 1e-10 relative to beta_k, times |q_k|, floored at the residual's rounding
    n = sys.q.size // 2
    band = min(ka, n)
    k = np.arange(-band, band + 1)
    q, a, b = sys.q[k + n], alpha.coeffs[k + ka], beta[k + out_order]
    residual = np.abs(np.where(k == 0, 1.0, 0.0) - a - q * b)
    bound = np.maximum(1e-10 * np.maximum(1.0, np.abs(b)) * np.abs(q),
                       4.0 * np.finfo(float).eps * (1.0 + np.abs(a) + np.abs(q * b)))
    bad = np.flatnonzero((np.abs(q) > Q_ZERO) & (residual > bound))
    if bad.size:
        i = bad[0]
        raise NumericalError(
            f"output harmonic {k[i]} disagrees between convolution and "
            f"coupling forms: residual {residual[i]:.3e} above {bound[i]:.3e}"
        )
    return Spectrum(sys.omega, beta, tol=1e-8)


def infer_input_spectrum(beta: Spectrum, law: DeadTimeLaw) -> tuple[Spectrum, float]:
    """Invert the transmission: input spectrum from the output spectrum.

    Solves ``beta_k = sum_m Lambda_m (delta_{k,m} - q_{k-m} beta_{k-m})``
    for ``Lambda`` on the band of ``beta``.  Returns the spectrum together
    with the condition number of the (Toeplitz) system so callers can judge
    noise amplification; no regularization is applied.
    """
    b = beta.order
    q = qk_array(law, beta.omega, 2 * b)
    beta_pad = _padded_coefficients(beta, 2 * b)
    k_range = np.arange(-b, b + 1)
    diff = k_range[:, None] - k_range[None, :]
    mat = np.eye(2 * b + 1, dtype=complex) - (q * beta_pad)[diff + 2 * b]
    lam, cond = _conditioned_solve(
        mat, beta.coeffs.copy(), _COND_LIMIT, "input inference is ill-conditioned"
    )
    return Spectrum(beta.omega, lam, tol=1e-7), cond


def cosine_continued_fraction(
    lam0: float,
    eps: float,
    law: DeadTimeLaw,
    omega: float,
) -> Spectrum:
    """Active-fraction spectrum for pure cosine drive, without a linear solve.

    For input rate ``lam0 + eps*cos(omega t)`` the harmonic system becomes a
    three-term recurrence whose decaying solution is found by a backward
    continued fraction: ratios ``r_{k-1} = -1/(x_k + r_k)`` started from
    zero far out, with ``x_k = (1/q_k + lam0) * 2/eps``.  The backward start
    is pushed out geometrically until the bottom ratio stabilizes to
    ``_CF_TOL`` relative; resonant harmonics with vanishing ``q_k``
    terminate the chain exactly.  The ratios of the converged pass give
    the spectrum; the passes share one ladder of ``q_k``, grown with the depth.
    """
    if eps < 0.0:
        raise ValueError("modulation amplitude must be non-negative")
    if lam0 < eps:
        raise ValueError("modulation must not push the rate negative")
    q = _grow(law, omega, np.empty(0, dtype=complex), 0)
    q0 = float(q[0].real)
    if eps == 0.0:
        coeffs = np.zeros(2 * 1 + 1, dtype=complex)
        coeffs[1] = stationary_active_fraction(lam0, q0)
        return Spectrum(omega, coeffs)

    def backward_ratios(start: int) -> np.ndarray:
        """``ratios[k-1] = alpha_k / alpha_{k-1}`` up to ``k = _CF_MAX_ORDER``, from ``start`` down."""
        nonlocal q
        q = _grow(law, omega, q, start)
        ratios = np.empty(min(start, _CF_MAX_ORDER), dtype=complex)
        r = 0.0 + 0.0j
        for k in range(start, 0, -1):
            qk = complex(q[start + k])
            if abs(qk) <= Q_ZERO:
                r = 0.0 + 0.0j
            else:
                denom = (1.0 / qk + lam0) * (2.0 / eps) + r
                if denom == 0.0:
                    raise NumericalError("continued fraction hit a zero denominator")
                r = -1.0 / denom
            if k <= ratios.size:
                ratios[k - 1] = r
        return ratios

    n = 32
    ratios = backward_ratios(n)
    while True:
        n *= 2
        if n > 2**20:
            raise NumericalError("continued fraction did not converge by depth 2^20")
        r0 = ratios[0]
        ratios = backward_ratios(n)
        scale = max(abs(ratios[0]), abs(r0))
        if scale == 0.0 or abs(ratios[0] - r0) <= _CF_TOL * scale:
            break

    alpha0 = 1.0 / (1.0 + q0 * (lam0 + eps * ratios[0].real))
    coeffs_pos = [complex(alpha0)]
    for k in range(ratios.size):
        nxt = coeffs_pos[-1] * ratios[k]
        if abs(nxt) < 1e-18 * abs(alpha0):
            break
        coeffs_pos.append(nxt)
    return Spectrum(omega, hermitian(coeffs_pos))


def periodic_rate(sys: HarmonicSystem, beta: Spectrum, grid: TimeGrid) -> Trace:
    """Sample the periodic steady state on a time grid.

    The active fraction is reconstructed from the output spectrum through
    ``alpha_k = delta_{k,0} - q_k beta_k``, which stays valid at resonant
    harmonics where ``q_k`` vanishes.  A grid spanning exactly one period
    from zero is summed by one inverse FFT (:meth:`Spectrum.sample_period`);
    any other grid by the direct sum (:meth:`Spectrum.evaluate`).
    """
    b = beta.order
    q = _grow(sys.law, sys.omega, sys.q, b)
    n = q.size // 2
    alpha = np.empty(2 * b + 1, dtype=complex)
    for k in range(-b, b + 1):
        alpha[k + b] = (1.0 if k == 0 else 0.0) - q[k + n] * beta.coefficient(k)
    active_spectrum = Spectrum(sys.omega, alpha, tol=1e-8)
    period = 2.0 * math.pi
    if grid.t0 == 0.0 and abs(grid.dt * (grid.n - 1) * sys.omega - period) <= 1e-12 * period:
        active = active_spectrum.sample_period(grid.n - 1)
        rate = beta.sample_period(grid.n - 1)
    else:
        active = active_spectrum.evaluate(grid.times(), max_imag=1e-8)
        rate = beta.evaluate(grid.times(), max_imag=1e-8)
    return Trace(grid, np.clip(active, 0.0, 1.0), np.clip(rate, 0.0, None))
