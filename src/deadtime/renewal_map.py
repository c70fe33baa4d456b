"""Mapping renewal processes onto refractory Poisson descriptions.

A renewal stream whose inter-event interval is the sum of an exponential
wait and an independent non-negative remainder can be reproduced by a
constant-rate refractory process.  Peeling the exponential factor off
the interval density gives the dead-time law

    rho(x) = interval_pdf'(x) / rate + interval_pdf(x),

plus a point mass ``interval_pdf(0) / rate`` at zero.  The construction
is normalized by design; the only obstruction is negativity of ``rho``,
which is equivalent to a one-sided bound on the interval hazard.  This
module builds the mapping, tests admissibility, locates the smallest
admissible rate, and provides the two worked families (gamma intervals
and log-normal intervals) with analytic derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import optimize, special

from .core import (
    DeadTimeLaw,
    FixedDeadTime,
    GammaDeadTime,
    NotRepresentableError,
    NumericalError,
    TabulatedDeadTime,
    cumulative_trapezoid,
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


def _as_array_fn(fn: Callable) -> Callable:
    def wrapped(x):
        return np.asarray(fn(np.asarray(x, dtype=float)), dtype=float)

    return wrapped


def _log_grid(x_max: float, n: int) -> np.ndarray:
    return np.concatenate(([0.0], np.geomspace(x_max * 1e-8, x_max, n)))


def _hazards(pdf: Callable, pdf_prime: Callable, surv: Callable, fill: float):
    """Hazard ``f/S`` and its derivative ``f'/S + (f/S)**2`` of an interval law.

    Where the survivor ``S`` vanishes the hazard reads ``fill`` and its
    derivative zero.
    """

    def hz(x):
        s = surv(x)
        return np.where(s > 0.0, pdf(x) / np.where(s > 0.0, s, 1.0), fill)

    def hzp(x):
        s = surv(x)
        good = s > 0.0
        s_safe = np.where(good, s, 1.0)
        return np.where(good, pdf_prime(x) / s_safe + (pdf(x) / s_safe) ** 2, 0.0)

    return hz, hzp


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
    1e-9.  The derivative feeds the dead-time construction; the hazard
    and its derivative feed the admissibility criterion.  Where both the
    density and the hazard are supplied they must describe the same
    process: the density has to equal hazard times interval survivor.
    """

    interval_pdf: Callable
    x_max: float
    interval_pdf_derivative: Callable | None = None
    hazard: Callable | None = None
    hazard_derivative: Callable | None = None

    def __post_init__(self):
        if not (self.x_max > 0.0) or not math.isfinite(self.x_max):
            raise ValueError(f"domain cutoff must be positive, got {self.x_max}")
        for name in (
            "interval_pdf",
            "interval_pdf_derivative",
            "hazard",
            "hazard_derivative",
        ):
            fn = getattr(self, name)
            if fn is not None:
                object.__setattr__(self, name, _as_array_fn(fn))
        x, vals, mass = _tabulate_converged(self.interval_pdf, self.x_max)
        if abs(mass - 1.0) > _MASS_TOL:
            raise ValueError(
                f"interval density mass {mass!r} deviates from one by more than 1e-9"
            )
        scale = float(np.max(vals))
        if np.min(vals) < -_NEG_TOL * max(1.0, scale):
            raise ValueError("interval density must be non-negative")
        if self.hazard is not None:
            surv = 1.0 - cumulative_trapezoid(vals, x)
            hz = self.hazard(x[1:])
            gap = np.abs(vals[1:] - hz * surv[1:])
            if np.max(gap) > 1e-8 * max(1.0, scale):
                raise ValueError(
                    "hazard and interval density describe different processes"
                )

    # factories ---------------------------------------------------------

    @classmethod
    def from_gamma(cls, index: int, rate: float) -> "RenewalSpec":
        """Interval density proportional to ``x**index * exp(-rate*x)``."""
        ref = GammaDeadTime(index, rate)
        hz, hzp = _hazards(ref.density, ref.density_derivative, ref.survivor, rate)
        return cls(
            interval_pdf=ref.density,
            x_max=ref.quantile(1.0 - 1e-10),
            interval_pdf_derivative=ref.density_derivative,
            hazard=hz,
            hazard_derivative=hzp,
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

        def surv(x):
            x = np.asarray(x, dtype=float)
            out = np.ones_like(x)
            pos = x > 0.0
            z = (np.log(x[pos] / delta) - mu) / sigma
            out[pos] = 0.5 * special.erfc(z / math.sqrt(2.0))
            return out

        hz, hzp = _hazards(pdf, pdf_prime, surv, 0.0)
        tail = delta * math.exp(mu + sigma * float(special.ndtri(1.0 - 1e-10)))
        # keep the hazard-criterion maximum well inside the domain
        ridge = math.e * delta * math.exp(mu + 1.0 - sigma**2)
        return cls(
            interval_pdf=pdf,
            x_max=max(tail, ridge),
            interval_pdf_derivative=pdf_prime,
            hazard=hz,
            hazard_derivative=hzp,
        )

    @classmethod
    def from_sampled(cls, x, pdf) -> "RenewalSpec":
        """Spec from density samples; derivatives by central differences.

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
        cdf = cumulative_trapezoid(pdf, x)

        def interp(samples, fill):
            def fn(q):
                q = np.asarray(q, dtype=float)
                return np.interp(q, x, samples, left=fill, right=fill)

            return fn

        pdf_fn = interp(pdf, 0.0)

        def surv_fn(q):
            # exact piecewise-quadratic survivor of the linear interpolant
            q = np.asarray(q, dtype=float)
            idx = np.clip(np.searchsorted(x, q, side="right") - 1, 0, x.size - 2)
            a = x[idx]
            width = x[idx + 1] - a
            t = np.clip(q - a, 0.0, width)
            fa = pdf[idx]
            run = fa * t + (pdf[idx + 1] - fa) * t * t / (2.0 * width)
            out = np.clip(1.0 - cdf[idx] - run, 0.0, 1.0)
            return np.where(q > x[-1], 0.0, out)

        def hz_fn(q):
            s = surv_fn(q)
            return np.where(s > 1e-12, pdf_fn(q) / np.where(s > 0, s, 1.0), 0.0)

        with np.errstate(divide="ignore", invalid="ignore"):
            surv_nodes = np.clip(1.0 - cdf, 0.0, 1.0)
            hz_nodes = np.where(
                surv_nodes > 1e-12, pdf / np.where(surv_nodes > 0, surv_nodes, 1), 0.0
            )
        hz_slope = np.gradient(hz_nodes, x)

        return cls(
            interval_pdf=pdf_fn,
            x_max=float(x[-1]),
            interval_pdf_derivative=interp(slope, 0.0),
            hazard=hz_fn,
            hazard_derivative=interp(hz_slope, 0.0),
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

    ``supremum`` is the largest value of ``h - h'/h`` over the domain,
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
    ``NotRepresentableError`` naming the first abscissa where the
    candidate density turns negative.
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


def _criterion_grid(spec: RenewalSpec, n: int = 8192):
    if spec.hazard is None or spec.hazard_derivative is None:
        raise ValueError("hazard and its derivative are required for the criterion")
    x = np.geomspace(spec.x_max * 1e-6, spec.x_max, n)
    h = spec.hazard(x)
    hp = spec.hazard_derivative(x)
    pos = h > 0.0
    with np.errstate(invalid="ignore"):
        g = np.where(pos, h - hp / np.where(pos, h, 1.0), -np.inf)
    return x, h, hp, g


def _refined_supremum(spec: RenewalSpec, x: np.ndarray, g: np.ndarray):
    i = int(np.argmax(g))
    lo = x[max(i - 1, 0)]
    hi = x[min(i + 1, x.size - 1)]

    def negated(t):
        h = float(spec.hazard(np.array([t]))[0])
        if not math.isfinite(h) or h <= 0.0:
            return 1e300
        hp = float(spec.hazard_derivative(np.array([t]))[0])
        return -(h - hp / h)

    res = optimize.minimize_scalar(
        negated, bounds=(lo, hi), method="bounded",
        options={"xatol": (hi - lo) * 1e-10},
    )
    best = max(float(g[i]), -float(res.fun))
    where = float(res.x) if -float(res.fun) >= float(g[i]) else float(x[i])
    return best, where


def check_hazard_condition(spec: RenewalSpec, input_rate: float) -> HazardCheck:
    """Test whether ``input_rate`` admits a non-negative dead-time density.

    Where the hazard is positive the criterion is the one-sided bound
    ``h - h'/h <= input_rate``; at hazard zeros the derivative must not
    be negative.
    """
    x, h, hp, g = _criterion_grid(spec)
    sup, sup_x = _refined_supremum(spec, x, g)
    slack = input_rate * (1.0 + 1e-9)
    bad = (h > 0.0) & (g > slack)
    bad |= (h <= 0.0) & (hp < -slack * h - _NEG_TOL)
    if np.any(bad):
        # report the deepest violation, matching what the construction names
        depth = np.where(bad, np.where(h > 0.0, g, -hp), -np.inf)
        return HazardCheck(False, sup, float(x[int(np.argmax(depth))]))
    if sup > slack:
        return HazardCheck(False, sup, sup_x)
    return HazardCheck(True, sup, None)


def minimal_lambda(spec: RenewalSpec) -> float:
    """Smallest admissible input rate: the supremum of ``h - h'/h``."""
    x, h, _hp, g = _criterion_grid(spec)
    worst = int(np.argmax(h))
    if h[worst] > 1e12:
        raise NotRepresentableError(
            "hazard is unbounded on the domain",
            x=float(x[worst]),
            bound=float(h[worst]),
        )
    sup, _ = _refined_supremum(spec, x, g)
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


def convolution_residual(
    rep: PprdRepresentation,
    spec: RenewalSpec,
    n_points: int = 257,
    n_quad: int = 4096,
) -> float:
    """Sup-norm defect of interval = dead time + exponential wait.

    Convolves the representation's dead-time law with the exponential
    density of the input rate and compares against the interval density,
    over a log-spaced set of interval lengths.  The quadrature runs in
    log space so sharply peaked laws stay resolved.
    """
    lam = rep.input_rate
    t = np.geomspace(spec.x_max * 1e-4, spec.x_max, n_points)
    x_lo = min(spec.x_max * 1e-9, float(t[0]) * 1e-3)
    s = np.linspace(0.0, 1.0, n_quad + 1)
    weights = simpson_weights(n_quad, 1.0)
    y_lo = math.log(x_lo)
    y_hi = np.log(t)
    y = y_lo + (y_hi[:, None] - y_lo) * s[None, :]
    x = np.exp(y)
    dens = np.asarray(rep.law.density(x.ravel()), dtype=float).reshape(x.shape)
    integ = dens * x * lam * np.exp(-lam * (t[:, None] - x))
    conv = (integ * weights[None, :]).sum(axis=1) * (y_hi - y_lo) / n_quad
    conv += float(rep.law.atom0) * lam * np.exp(-lam * t)
    target = spec.interval_pdf(t)
    return float(np.max(np.abs(conv - target)))
