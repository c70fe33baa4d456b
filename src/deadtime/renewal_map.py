"""Mapping renewal processes onto refractory Poisson descriptions.

A renewal stream whose inter-event interval is the sum of an exponential
wait and an independent non-negative remainder can be reproduced by a
constant-rate refractory process.  Peeling the exponential factor off
the interval density gives the dead-time law

    rho(x) = interval_pdf'(x) / rate + interval_pdf(x),

plus a point mass ``interval_pdf(0) / rate`` at zero.  The construction
is normalized by design; the only obstruction is negativity of ``rho``,
which is the one-sided bound ``-interval_pdf'/interval_pdf <= rate``.
This module builds the mapping, tests admissibility, locates the smallest
admissible rate, and provides the two worked families (gamma intervals
and log-normal intervals) with analytic derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DeadTimeLaw,
    FixedDeadTime,
    GammaDeadTime,
    NotRepresentableError,
    NumericalError,
    TabulatedDeadTime,
    simpson_weights,
)

__all__ = [
    "RenewalSpec",
    "PprdRepresentation",
    "HazardCheck",
    "dead_time_from_interval",
    "check_hazard_condition",
    "minimal_lambda",
    "construct_gamma",
    "construct_lognormal",
    "lognormal_minimal_rate",
    "convolution_residual",
]

_MASS_TOL = 1e-9
_NEG_TOL = 1e-12
_CRITERION_NODES = 8192
_REFINE_POINTS = 4097
_REFINE_PASSES = 3
_RESIDUAL_POINTS = 257
_RESIDUAL_CELLS = 4096
_RESIDUAL_BLOCK = 16
# scipy.special.ndtri(1 - 1e-10): the standard normal's upper 1e-10 quantile
# (statistics.NormalDist().inv_cdf rounds it one ulp lower)
_NORMAL_TAIL_Z = 6.361340889697422


def _as_array_fn(fn: Callable) -> Callable:
    def wrapped(x):
        return np.asarray(fn(np.asarray(x, dtype=float)), dtype=float)

    return wrapped


def _log_grid(x_max: float, n: int) -> np.ndarray:
    return np.concatenate(([0.0], np.geomspace(x_max * 1e-8, x_max, n)))


def _tabulate_converged(fn: Callable, x_max: float, atom: float = 0.0):
    """Log-spaced samples of ``fn`` refined until the trapezoid mass settles.

    Doubles the node count until two consecutive refinements agree within
    the mass tolerance, so the returned mass is accurate to roughly a
    third of that.
    """
    n = 4096
    prev = None
    while True:
        x = _log_grid(x_max, n)
        vals = np.asarray(fn(x), dtype=float)
        mass = atom + float(np.trapezoid(vals, x))
        if prev is not None and abs(mass - prev) < _MASS_TOL:
            return x, vals, mass
        if n >= (1 << 20):
            raise NumericalError(
                "density tabulation did not stabilize", condition=abs(mass - prev or 0)
            )
        prev = mass
        n *= 2


@dataclass(frozen=True, eq=False)
class RenewalSpec:
    """A renewal process described by its interval density.

    ``interval_pdf`` must integrate to one over ``[0, x_max]`` within
    1e-9.  Its derivative feeds both the dead-time construction and the
    admissibility criterion ``-interval_pdf'/interval_pdf <= rate``.
    """

    interval_pdf: Callable
    x_max: float
    interval_pdf_derivative: Callable | None = None

    def __post_init__(self):
        if not (self.x_max > 0.0) or not math.isfinite(self.x_max):
            raise ValueError(f"domain cutoff must be positive, got {self.x_max}")
        for name in ("interval_pdf", "interval_pdf_derivative"):
            fn = getattr(self, name)
            if fn is not None:
                object.__setattr__(self, name, _as_array_fn(fn))
        _x, vals, mass = _tabulate_converged(self.interval_pdf, self.x_max)
        if abs(mass - 1.0) > _MASS_TOL:
            raise ValueError(
                f"interval density mass {mass!r} deviates from one by more than 1e-9"
            )
        scale = float(np.max(vals))
        if np.min(vals) < -_NEG_TOL * max(1.0, scale):
            raise ValueError("interval density must be non-negative")

    # factories ---------------------------------------------------------

    @classmethod
    def from_gamma(cls, index: int, rate: float) -> "RenewalSpec":
        """Interval density proportional to ``x**index * exp(-rate*x)``."""
        ref = GammaDeadTime(index, rate)
        return cls(
            interval_pdf=ref.density,
            x_max=ref.quantile(1.0 - 1e-10),
            interval_pdf_derivative=ref.density_derivative,
        )

    @classmethod
    def from_lognormal(cls, mu: float, sigma: float, delta: float) -> "RenewalSpec":
        """Interval ``delta * exp(N(mu, sigma^2))``."""
        if not (sigma > 0.0) or not (delta > 0.0):
            raise ValueError("need sigma > 0 and delta > 0")
        norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))

        def pdf(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            pos = x > 0.0
            z = (np.log(x[pos] / delta) - mu) / sigma
            out[pos] = norm * np.exp(-0.5 * z * z) / x[pos]
            return out

        def pdf_prime(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            pos = x > 0.0
            xp = x[pos]
            w = (np.log(xp / delta) - mu) / sigma**2
            out[pos] = -pdf(xp) / xp * (1.0 + w)
            return out

        tail = delta * math.exp(mu + sigma * _NORMAL_TAIL_Z)
        # keep the criterion maximum well inside the domain
        ridge = math.e * delta * math.exp(mu + 1.0 - sigma**2)
        return cls(
            interval_pdf=pdf,
            x_max=max(tail, ridge),
            interval_pdf_derivative=pdf_prime,
        )

    @classmethod
    def from_sampled(cls, x, pdf) -> "RenewalSpec":
        """Spec from density samples; derivative by central differences.

        The samples are renormalized so the linear interpolant carries
        unit mass.
        """
        x = np.asarray(x, dtype=float)
        pdf = np.asarray(pdf, dtype=float)
        if x.ndim != 1 or x.size < 3 or pdf.shape != x.shape:
            raise ValueError("need matching 1-d arrays with at least three nodes")
        if x[0] < 0.0 or np.any(np.diff(x) <= 0.0):
            raise ValueError("abscissae must be non-negative and strictly increasing")
        pdf = np.clip(pdf, 0.0, None) / np.trapezoid(np.clip(pdf, 0.0, None), x)
        slope = np.gradient(pdf, x)

        def interp(samples):
            def fn(q):
                q = np.asarray(q, dtype=float)
                return np.interp(q, x, samples, left=0.0, right=0.0)

            return fn

        return cls(
            interval_pdf=interp(pdf),
            x_max=float(x[-1]),
            interval_pdf_derivative=interp(slope),
        )


@dataclass(frozen=True)
class PprdRepresentation:
    """A constant input rate plus a dead-time law reproducing a renewal stream."""

    input_rate: float
    law: DeadTimeLaw

    def __post_init__(self):
        if not (self.input_rate > 0.0) or not math.isfinite(self.input_rate):
            raise ValueError(f"input rate must be positive, got {self.input_rate}")


@dataclass(frozen=True)
class HazardCheck:
    """Outcome of the admissibility criterion.

    ``supremum`` is the largest value of ``-f'/f`` over the domain,
    i.e. the smallest admissible input rate; ``violation_x`` points at
    the first place the tested rate fails, if it does.
    """

    admissible: bool
    supremum: float
    violation_x: float | None


def dead_time_from_interval(spec: RenewalSpec, input_rate: float) -> PprdRepresentation:
    """Peel an exponential factor off the interval density.

    Returns the tabulated dead-time law with the point mass
    ``interval_pdf(0)/input_rate`` at zero.  Raises
    ``NotRepresentableError`` naming the abscissa where the candidate
    density turns negative, which happens exactly where
    ``-interval_pdf'/interval_pdf`` exceeds ``input_rate``, or naming
    ``x_max`` when the density left at the cutoff would carry more than
    the law-mass tolerance beyond it.
    """
    if not (input_rate > 0.0) or not math.isfinite(input_rate):
        raise ValueError(f"input rate must be positive, got {input_rate}")
    if spec.interval_pdf_derivative is None:
        raise ValueError("interval density derivative required for the construction")

    def candidate(x):
        return spec.interval_pdf_derivative(x) / input_rate + spec.interval_pdf(x)

    atom = float(spec.interval_pdf(np.array([0.0]))[0]) / input_rate
    if atom > 1.0 + 1e-12:
        raise NotRepresentableError(
            f"point mass {atom} at zero exceeds one", x=0.0, bound=atom
        )
    # the law's mass is atom + int rho = 1 + interval_pdf(x_max)/input_rate
    cut = float(spec.interval_pdf(np.array([spec.x_max]))[0]) / input_rate
    if cut > _MASS_TOL:
        raise NotRepresentableError(
            f"interval density at the cutoff leaves mass {cut:.3g} beyond it",
            x=spec.x_max,
            bound=cut,
        )
    x, rho, _mass = _tabulate_converged(candidate, spec.x_max, atom=atom)
    tol = _NEG_TOL * max(1.0, float(np.max(rho)))
    worst = int(np.argmin(rho))
    if rho[worst] < -tol:
        raise NotRepresentableError(
            f"dead-time density turns negative at x={x[worst]:.6g}",
            x=float(x[worst]),
            bound=float(rho[worst]),
        )
    law = TabulatedDeadTime(x, np.clip(rho, 0.0, None), atom_at_zero=min(atom, 1.0))
    return PprdRepresentation(input_rate, law)


def _criterion(spec: RenewalSpec, x: np.ndarray):
    """``f``, ``f'`` and ``-f'/f`` at ``x``; the ratio is ``-inf`` where ``f`` is not positive."""
    f = spec.interval_pdf(x)
    fp = spec.interval_pdf_derivative(x)
    pos = f > 0.0
    with np.errstate(over="ignore"):
        g = np.where(pos, -fp / np.where(pos, f, 1.0), -np.inf)
    return f, fp, g


def _criterion_grid(spec: RenewalSpec):
    if spec.interval_pdf_derivative is None:
        raise ValueError("interval density derivative required for the criterion")
    x = np.geomspace(spec.x_max * 1e-6, spec.x_max, _CRITERION_NODES)
    return (x, *_criterion(spec, x))


def _refined_supremum(spec: RenewalSpec, x: np.ndarray, g: np.ndarray):
    """Largest ``-f'/f`` on the grid or in the bracket around its grid maximum.

    Each pass samples the bracket evenly and narrows it to the two cells
    around its largest sample, so three passes resolve about 6e-11 of the
    first bracket.
    """
    i = int(np.argmax(g))
    best, where = float(g[i]), float(x[i])
    lo, hi = x[max(i - 1, 0)], x[min(i + 1, x.size - 1)]
    for _ in range(_REFINE_PASSES):
        t = np.linspace(lo, hi, _REFINE_POINTS)
        gt = _criterion(spec, t)[2]
        j = int(np.argmax(gt))
        if gt[j] >= best:
            best, where = float(gt[j]), float(t[j])
        lo, hi = t[max(j - 1, 0)], t[min(j + 1, t.size - 1)]
    return best, where


def check_hazard_condition(spec: RenewalSpec, input_rate: float) -> HazardCheck:
    """Test whether ``input_rate`` admits a non-negative dead-time density.

    Where the interval density ``f`` is positive the criterion is the
    one-sided bound ``-f'/f <= input_rate``; where it vanishes its
    derivative must not be negative.
    """
    x, f, fp, g = _criterion_grid(spec)
    sup, sup_x = _refined_supremum(spec, x, g)
    slack = input_rate * (1.0 + 1e-9)
    pos = f > 0.0
    bad = (pos & (g > slack)) | (~pos & (fp < -_NEG_TOL))
    if np.any(bad):
        # report the deepest violation, matching what the construction names
        depth = np.where(bad, np.where(pos, g, -fp), -np.inf)
        return HazardCheck(False, sup, float(x[int(np.argmax(depth))]))
    if sup > slack:
        return HazardCheck(False, sup, sup_x)
    return HazardCheck(True, sup, None)


def minimal_lambda(spec: RenewalSpec) -> float:
    """Smallest admissible input rate: the supremum of ``-f'/f``."""
    x, _f, _fp, g = _criterion_grid(spec)
    sup, where = _refined_supremum(spec, x, g)
    if sup > 1e12:
        raise NotRepresentableError(
            "criterion -f'/f is unbounded on the domain", x=where, bound=sup
        )
    return sup


def construct_gamma(index: int, rate: float) -> PprdRepresentation:
    """Representation of the renewal stream with interval ~ x**index e^(-rate x).

    The dead time keeps the same exponential rate and drops the power by
    one; at ``index == 0`` the interval is itself exponential and the dead
    time collapses to a unit point mass at zero (a bare Poisson stream).
    """
    if not isinstance(index, (int, np.integer)) or index < 0:
        raise ValueError(f"interval index must be a non-negative integer, got {index}")
    if not (rate > 0.0) or not math.isfinite(rate):
        raise ValueError(f"gamma rate must be positive, got {rate}")
    if index == 0:
        return PprdRepresentation(rate, FixedDeadTime(0.0))
    return PprdRepresentation(rate, GammaDeadTime(index - 1, rate))


def lognormal_minimal_rate(mu: float, sigma: float, delta: float) -> float:
    """Smallest admissible input rate for a log-normal interval."""
    if not (sigma > 0.0) or not (delta > 0.0):
        raise ValueError("need sigma > 0 and delta > 0")
    return math.exp(-1.0 - mu + sigma**2) / (delta * sigma**2)


def construct_lognormal(
    mu: float, sigma: float, delta: float, input_rate: float | None = None
) -> PprdRepresentation:
    """Representation of the log-normal renewal stream.

    ``input_rate`` defaults to the smallest admissible rate, where the
    dead-time density touches zero.
    """
    bound = lognormal_minimal_rate(mu, sigma, delta)
    rate = bound if input_rate is None else float(input_rate)
    if rate < bound * (1.0 - 1e-9):
        raise ValueError(
            f"input rate {rate} below the admissible minimum {bound}"
        )
    spec = RenewalSpec.from_lognormal(mu, sigma, delta)
    return dead_time_from_interval(spec, rate)


def convolution_residual(rep: PprdRepresentation, spec: RenewalSpec) -> float:
    """Sup-norm defect of interval = dead time + exponential wait.

    Convolves the representation's dead-time law with the exponential
    density of the input rate and compares against the interval density,
    over a log-spaced set of interval lengths.  The quadrature runs in
    log space so sharply peaked laws stay resolved.
    """
    lam = rep.input_rate
    t = np.geomspace(spec.x_max * 1e-4, spec.x_max, _RESIDUAL_POINTS)
    x_lo = min(spec.x_max * 1e-9, float(t[0]) * 1e-3)
    s = np.linspace(0.0, 1.0, _RESIDUAL_CELLS + 1)
    weights = simpson_weights(_RESIDUAL_CELLS, 1.0)
    y_lo = math.log(x_lo)
    y_hi = np.log(t)
    conv = np.empty_like(t)
    # a few rows at a time: each row's sum is reduced alone, so the blocks
    # change no bit of the full grid's result
    for start in range(0, t.size, _RESIDUAL_BLOCK):
        rows = slice(start, start + _RESIDUAL_BLOCK)
        y = y_lo + (y_hi[rows, None] - y_lo) * s[None, :]
        x = np.exp(y)
        dens = np.asarray(rep.law.density(x.ravel()), dtype=float).reshape(x.shape)
        integ = dens * x * lam * np.exp(-lam * (t[rows, None] - x))
        conv[rows] = (integ * weights[None, :]).sum(axis=1)
    conv = conv * (y_hi - y_lo) / _RESIDUAL_CELLS
    conv += float(rep.law.atom0) * lam * np.exp(-lam * t)
    target = spec.interval_pdf(t)
    return float(np.max(np.abs(conv - target)))
