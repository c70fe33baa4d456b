"""Domain types shared across the package.

Times are seconds and rates are hertz throughout.  Angular frequencies are
derived from ordinary frequencies in exactly one place (:func:`angular_frequency`)
so that no ``2*pi`` factor can drift between modules.

Everything here is an immutable value object with pure-function semantics,
safe to share between worker threads.
"""

import cmath
import contextlib
import functools
import itertools
import math
import os
import stat
import sys
import tempfile
import zipfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi

#: Tail probability used to truncate dead-time distributions onto a finite
#: support window.  Chosen so the discarded mass is far below every shipped
#: tolerance.
KERNEL_TAIL = 1e-12


class NumericalError(RuntimeError):
    """A solver could not produce a trustworthy result.

    Carries an optional ``condition`` attribute (a condition-number estimate
    or similar diagnostic) so callers can report why the computation was
    rejected.
    """

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition


class NotRepresentableError(ValueError):
    """A renewal process admits no valid refractory representation.

    ``x`` is the first abscissa where the constraint fails and ``bound`` the
    offending value, when known.
    """

    def __init__(self, message: str, x: float | None = None, bound: float | None = None):
        super().__init__(message)
        self.x = x
        self.bound = bound


def angular_frequency(frequency: float) -> float:
    """Angular frequency ``2*pi*f`` for an ordinary frequency in hertz."""
    return TWO_PI * frequency


def whole_steps(span: float, width: float):
    """Whole steps of ``width`` in ``span``; an inf or NaN ratio passes through.

    A shortfall of up to 1e-9 of the count (1e-9 below one step) still
    counts the step, so a span built as ``n*width``, rounded however,
    counts ``n`` at any size.
    """
    x = span / width
    return math.floor(x + 1e-9 * max(1.0, x)) if math.isfinite(x) else x


def simpson_weights(n_cells: int, h: float) -> np.ndarray:
    """Composite Simpson weights on ``n_cells`` uniform cells.

    An odd cell count gets a trapezoid patch on the last cell; the loss of
    order there is local and does not affect the audited bounds.
    """
    if n_cells < 2:
        raise ValueError("need at least two cells for Simpson weights")
    w = np.zeros(n_cells + 1)
    even = n_cells if n_cells % 2 == 0 else n_cells - 1
    w[0:even + 1:2] += 2.0 * h / 3.0
    w[1:even:2] = 4.0 * h / 3.0
    w[0] = h / 3.0
    w[even] -= h / 3.0
    if even != n_cells:
        w[-2] += h / 2.0
        w[-1] += h / 2.0
    return w


def cumulative_trapezoid(y, x) -> np.ndarray:
    """Running trapezoid integral of the samples ``y`` at the nodes ``x``, zero at ``x[0]``."""
    return np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))))


def tabulated_quantile(x, pdf, u):
    """Inverse CDF at the levels ``u`` of the density sampled as ``pdf`` at ``x``.

    The trapezoid CDF is scaled to end at one, so ``pdf`` need not be
    normalized.
    """
    cdf = cumulative_trapezoid(pdf, x)
    cdf /= cdf[-1]
    return np.interp(u, cdf, x)


def hermitian(pos) -> np.ndarray:
    """Coefficients ``c_-K .. c_K`` of a real signal from its ``c_0 .. c_K``."""
    pos = np.asarray(pos, dtype=complex)
    return np.concatenate((pos[::-1].conj(), pos[1:]))


def _fmt(value: float) -> str:
    """17 significant digits, which read back bit for bit; used by every CSV writer."""
    return format(float(value), ".17g")


# ---------------------------------------------------------------------------
# CSV files
# ---------------------------------------------------------------------------

_COLUMN_RULES = {"f": "finite numbers", "n": "finite numbers or NaN"}
_BLOCK_ROWS = 1 << 14


@dataclass(frozen=True)
class Schema:
    """One CSV file format, shared by its writer, its reader and ``validate``.

    ``kind`` is the name ``validate`` reports; ``header`` names the columns; ``types`` has one letter per column:
    ``f`` a finite float, ``n`` a finite float or NaN, ``i`` an integer
    (written and read as a plain integer literal).
    A ``parameter`` extends the header line with ``,name=value``.  A
    ``headerless`` file starts with its first row.  Only an ``empty_ok``
    file may hold no rows.
    """

    kind: str
    header: str
    types: str
    parameter: str | None = None
    headerless: bool = False
    empty_ok: bool = False

    def matches(self, line: str) -> bool:
        """Whether ``line`` is this schema's header line."""
        if self.parameter is not None:
            return line.startswith(f"{self.header},{self.parameter}=")
        return not self.headerless and line == self.header


def write_csv(path, schema: Schema, columns, value: float | None = None) -> None:
    """Write ``columns`` as the rows of a ``schema`` file; ``"-"`` is stdout.

    ``value`` is the header parameter of a schema that has one.  Rows are
    formatted a block at a time, so a long table never exists as text.
    Columns that ``read_csv`` would reject raise ``ValueError`` before
    ``path`` is opened, leaving any file there as it was.
    """
    columns = [
        np.asarray(col, dtype=np.int64 if kind == "i" else float)
        for kind, col in zip(schema.types, columns, strict=True)
    ]
    if len({col.shape for col in columns}) > 1:
        raise ValueError(f"{schema.kind} columns differ in length")
    if not (columns[0].size or schema.empty_ok):
        raise ValueError(f"{schema.kind} file has no rows")
    _check_columns(schema, columns)
    # '%.17g' is the routine behind _fmt's format(v, '.17g'), byte for byte
    row = ",".join("%d" if kind == "i" else "%.17g" for kind in schema.types) + "\n"
    out = contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="ascii")
    with out as fh:
        if not schema.headerless:
            param = "" if schema.parameter is None else f",{schema.parameter}={_fmt(value)}"
            fh.write(f"{schema.header}{param}\n")
        for start in range(0, columns[0].size, _BLOCK_ROWS):
            block = [col[start:start + _BLOCK_ROWS].tolist() for col in columns]
            fh.write(row * len(block[0]) % tuple(itertools.chain.from_iterable(zip(*block))))


def read_csv(path, schema: Schema) -> tuple[list[np.ndarray], float | None]:
    """Columns of a ``schema`` file and the value of its header parameter.

    Integer columns come back as ``int64``, the others as floats.  Raises
    ``ValueError`` for any other header, a cell that is not a number of its
    column's type, a row of the wrong length, a value its column does not
    allow, or a file without rows unless the schema allows that.
    """
    names = schema.header.split(",")
    dtype = np.dtype([
        (name, np.int64 if kind == "i" else float) for name, kind in zip(names, schema.types)
    ])
    value = None
    with open(path, "r", encoding="ascii") as fh:
        if not schema.headerless:
            line = fh.readline().strip()
            if not schema.matches(line):
                raise ValueError(f"unexpected {schema.kind} header {line!r}")
            if schema.parameter is not None:
                value = float(line.split("=", 1)[1])
        start = fh.tell()
        # loadtxt only warns on a table without rows, so look for one first
        if any(row.split("#", 1)[0].strip() for row in iter(fh.readline, "")):
            fh.seek(start)
            try:
                data = np.loadtxt(fh, delimiter=",", dtype=dtype, ndmin=1)
            except ValueError:
                # name a row of the wrong length against the schema, not loadtxt's usecols
                fh.seek(start)
                for lineno, row in enumerate(iter(fh.readline, ""), 1 if schema.headerless else 2):
                    row = row.split("#", 1)[0].strip()
                    if row and (found := row.count(",") + 1) != len(names):
                        raise ValueError(f"{schema.kind} rows have {len(names)} columns "
                                         f"({schema.header}), found {found} on line {lineno}")
                raise
        elif schema.empty_ok:
            data = np.empty(0, dtype)
        else:
            raise ValueError(f"{schema.kind} file has no rows")
    columns = [data[name] for name in names]
    _check_columns(schema, columns)
    return columns, value


def _check_columns(schema: Schema, columns) -> None:
    """Raise ``ValueError`` for a float value its column does not allow."""
    for name, kind, col in zip(schema.header.split(","), schema.types, columns):
        if kind != "i" and not np.all(~np.isinf(col) if kind == "n" else np.isfinite(col)):
            raise ValueError(f"{schema.kind} column {name!r} must hold {_COLUMN_RULES[kind]}")


# ---------------------------------------------------------------------------
# time grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid; sample ``i`` sits at ``t0 + i*dt``.

    Parameters
    ----------
    t0 : float
        Time of the first sample.
    dt : float
        Strictly positive spacing.
    n : int
        Number of samples, at least one.
    """

    t0: float
    dt: float
    n: int

    def __post_init__(self):
        if not (self.dt > 0.0) or not math.isfinite(self.dt):
            raise ValueError(f"grid spacing must be positive and finite, got {self.dt}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"grid length must be a positive integer, got {self.n}")
        if not math.isfinite(self.t0):
            raise ValueError("grid origin must be finite")

    @classmethod
    def from_times(cls, t) -> "TimeGrid":
        """Grid of a time column read back from a file.

        The spacings may deviate from the first one by at most
        ``1e-9 * max(dt, 1)`` plus a few roundings of the largest time, which
        is all a grid far from zero keeps; anything rougher is not a uniform
        grid.  A single time gets unit spacing.
        """
        t = np.asarray(t, dtype=float)
        if t.size < 2:
            return cls(float(t[0]), 1.0, 1)
        dt = float(t[1] - t[0])
        tol = 1e-9 * max(dt, 1.0) + 8.0 * np.finfo(float).eps * np.max(np.abs(t))
        if not np.max(np.abs(np.diff(t) - dt)) <= tol:  # NaN fails
            raise ValueError("times are not uniformly spaced")
        return cls(float(t[0]), dt, t.size)

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    @property
    def t_end(self) -> float:
        """Time of the last sample."""
        return self.t0 + self.dt * (self.n - 1)

    @property
    def span(self) -> float:
        """Half-open length ``n*dt`` covered when samples are read as bins."""
        return self.dt * self.n


# ---------------------------------------------------------------------------
# input signals
# ---------------------------------------------------------------------------


def _wrap_scalar(t, out):
    if np.ndim(t) == 0:
        return float(out)
    return out


class InputSignal:
    """Time-dependent, non-negative input rate.

    Subclasses implement ``_rate`` on float arrays; the public methods accept
    scalars or arrays and mirror the input shape.
    """

    def rate(self, t):
        """Input rate at time ``t`` (right-continuous at jumps)."""
        arr = np.asarray(t, dtype=float)
        return _wrap_scalar(t, self._rate(arr))

    def rate_left(self, t):
        """Left limit of the rate at ``t``; differs from ``rate`` only at jumps."""
        return self.rate(t)

    def cumulative_rate(self, t):
        """Antiderivative of the rate, fixed to vanish at time zero.

        Only differences of this function are meaningful.
        """
        arr = np.asarray(t, dtype=float)
        return _wrap_scalar(t, self._cumulative(arr))

    def max_rate(self, t0: float, t1: float) -> float:
        """Exact supremum of the rate over the closed interval [t0, t1]."""
        raise NotImplementedError

    def levels(self) -> tuple[float, ...]:
        """Rates held over whole stretches of time, in time order; none if it keeps changing."""
        return ()

    def window_rate(self, t, tau):
        """Rate on the look-back window ``[t - tau, t]`` where it holds one of
        :meth:`levels` throughout; NaN where the window sees the rate change."""
        return np.full(np.broadcast_shapes(np.shape(t), np.shape(tau)), np.nan)

    def switch_time(self) -> float | None:
        """Time of the one jump between the two :meth:`levels`, if there is one."""
        return None

    def spectrum(self, omega: float, order: int) -> "Spectrum":
        """Fourier coefficients at angular frequency ``omega``; see :func:`signal_spectrum`."""
        raise ValueError(f"input {type(self).__name__} is not periodic")

    # hooks -----------------------------------------------------------------
    def _rate(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _cumulative(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(InputSignal):
    """Rate fixed at ``level`` for all times."""

    level: float

    def __post_init__(self):
        if not (self.level >= 0.0) or not math.isfinite(self.level):
            raise ValueError(f"rate must be finite and non-negative, got {self.level}")

    def _rate(self, t):
        return np.full_like(t, self.level)

    def _cumulative(self, t):
        return self.level * t

    def max_rate(self, t0, t1):
        return self.level

    def levels(self):
        return (self.level,)

    def window_rate(self, t, tau):
        return np.full(np.broadcast_shapes(np.shape(t), np.shape(tau)), self.level)

    def spectrum(self, omega, order):
        coeffs = np.zeros(2 * order + 1, dtype=complex)
        coeffs[order] = self.level
        return Spectrum(omega, coeffs)


@dataclass(frozen=True)
class Step(InputSignal):
    """Rate jumping from ``before`` to ``after`` at ``t_switch``.

    The jump is right-continuous: ``rate(t_switch) == after``.
    """

    before: float
    after: float
    t_switch: float = 0.0

    def __post_init__(self):
        for name in ("before", "after"):
            v = getattr(self, name)
            if not (v >= 0.0) or not math.isfinite(v):
                raise ValueError(f"rate {name!r} must be finite and non-negative, got {v}")
        if not math.isfinite(self.t_switch):
            raise ValueError("switch time must be finite")

    def _rate(self, t):
        return np.where(t >= self.t_switch, self.after, self.before)

    def rate_left(self, t):
        arr = np.asarray(t, dtype=float)
        return _wrap_scalar(t, np.where(arr > self.t_switch, self.after, self.before))

    def _cumulative(self, t):
        def anti(u):
            return self.before * np.minimum(u, self.t_switch) + self.after * np.maximum(
                u - self.t_switch, 0.0
            )

        return anti(t) - anti(np.zeros_like(t))

    def max_rate(self, t0, t1):
        if t1 < self.t_switch:
            return self.before
        if t0 >= self.t_switch:
            return self.after
        return max(self.before, self.after)

    def levels(self):
        return (self.before, self.after)

    def window_rate(self, t, tau):
        t = np.asarray(t, dtype=float)
        after = t - np.asarray(tau, dtype=float) >= self.t_switch
        return np.where(after, self.after, np.where(t <= self.t_switch, self.before, np.nan))

    def switch_time(self):
        return self.t_switch


@dataclass(frozen=True)
class Cosine(InputSignal):
    """Sinusoidally modulated rate ``base + amplitude*cos(2*pi*frequency*t)``.

    Requires ``base >= amplitude >= 0`` so the rate never turns negative.
    """

    base: float
    amplitude: float
    frequency: float

    def __post_init__(self):
        if not (self.amplitude >= 0.0):
            raise ValueError("modulation amplitude must be non-negative")
        if not (self.base >= self.amplitude):
            raise ValueError(
                f"base rate {self.base} must dominate the modulation amplitude {self.amplitude}"
            )
        if not (self.frequency > 0.0):
            raise ValueError("modulation frequency must be positive")

    @property
    def omega(self) -> float:
        return angular_frequency(self.frequency)

    def _rate(self, t):
        return self.base + self.amplitude * np.cos(self.omega * t)

    def _cumulative(self, t):
        return self.base * t + self.amplitude * np.sin(self.omega * t) / self.omega

    def max_rate(self, t0, t1):
        # a crest lies inside [t0, t1] iff some integer multiple of the period does
        if math.floor(t1 * self.frequency) >= math.ceil(t0 * self.frequency):
            return self.base + self.amplitude
        return float(max(self.rate(t0), self.rate(t1)))

    def spectrum(self, omega, order):
        if abs(self.omega - omega) > 1e-9 * omega:
            raise ValueError(
                f"cosine frequency {self.frequency} does not match the requested base "
                f"frequency {omega / TWO_PI}"
            )
        if order < 1 and self.amplitude > 0.0:
            raise ValueError("order 0 cannot hold a modulated input")
        coeffs = np.zeros(2 * order + 1, dtype=complex)
        coeffs[order] = self.base
        if order >= 1:
            coeffs[order - 1] = coeffs[order + 1] = 0.5 * self.amplitude
        return Spectrum(omega, coeffs)


@dataclass(frozen=True, eq=False)
class Sampled(InputSignal):
    """Rate linearly interpolated between samples on a uniform grid.

    Evaluation outside the sampled window raises ``ValueError``.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n,):
            raise ValueError(
                f"expected {self.grid.n} samples to match the grid, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise ValueError("sampled rates must be finite and non-negative")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def _check_domain(self, t):
        slack = 1e-9 * max(self.grid.dt, 1.0)
        if np.any(t < self.grid.t0 - slack) or np.any(t > self.grid.t_end + slack):
            raise ValueError(
                f"time outside the sampled window [{self.grid.t0}, {self.grid.t_end}]"
            )

    def _rate(self, t):
        self._check_domain(t)
        return np.interp(t, self.grid.times(), self.values)

    def _cumulative(self, t):
        # exact integral of the piecewise-linear interpolant, anchored at the
        # first sample
        self._check_domain(t)
        if self.grid.n < 2:
            return self.values[0] * (t - self.grid.t0)
        cell = 0.5 * (self.values[:-1] + self.values[1:]) * self.grid.dt
        prefix = np.concatenate(([0.0], np.cumsum(cell)))
        idx = np.clip(np.floor((t - self.grid.t0) / self.grid.dt).astype(int), 0, self.grid.n - 2)
        local = t - (self.grid.t0 + idx * self.grid.dt)
        slopes = np.diff(self.values) / self.grid.dt
        return prefix[idx] + self.values[idx] * local + 0.5 * slopes[idx] * local**2

    def max_rate(self, t0, t1):
        self._check_domain(np.asarray([t0, t1]))
        times = self.grid.times()
        inside = (times >= t0) & (times <= t1)
        cand = [self.rate(t0), self.rate(t1)]
        if np.any(inside):
            cand.append(float(np.max(self.values[inside])))
        return float(max(cand))

    def spectrum(self, omega, order):
        period = TWO_PI / omega
        if abs(self.grid.span - period) > 1e-9 * period:
            raise ValueError(
                f"sampled window {self.grid.span} does not cover one period {period}"
            )
        n = self.grid.n
        if order > n // 2 - 1:
            raise ValueError(f"order {order} unresolvable with {n} samples per period")
        t = self.grid.times()
        pos = [np.mean(self.values * np.exp(-1j * k * omega * t)) for k in range(order + 1)]
        return Spectrum(omega, hermitian(pos))


# ---------------------------------------------------------------------------
# dead-time laws
# ---------------------------------------------------------------------------


class DeadTimeLaw:
    """Distribution of the refractory duration that follows each event.

    A law may carry an atom at zero (``atom0``); the rest of its mass is
    described by ``density``.  ``survivor(x)`` is the probability that the
    dead time exceeds ``x``, so ``survivor(0) == 1 - atom0``.

    A new law implements ``survivor``, ``density`` and an elementwise
    ``quantile``.  Every other method has a generic body built from those; a
    shipped law overrides one only where it has a closed form or, as a
    table, nodes of its own.
    """

    @property
    def atom0(self) -> float:
        return 1.0 - float(self.survivor(0.0))

    @property
    def fixed_duration(self) -> float | None:
        """The one dead time that holds all the mass, or None where the law spreads it."""
        return None

    def mean(self) -> float:
        """``q_0 = int S``, which does not depend on the frequency."""
        return float(self.survivor_transform(1.0, [0])[0].real)

    def survivor(self, x):
        raise NotImplementedError

    def density(self, x):
        """Density of the absolutely continuous part (zero for a point mass)."""
        raise NotImplementedError

    def quantile(self, q):
        """Smallest ``x`` whose cumulative probability reaches ``q``, elementwise."""
        raise NotImplementedError

    def support_window(self) -> float:
        """Length of the window holding all probability mass except ``KERNEL_TAIL``."""
        return self.quantile(1.0 - KERNEL_TAIL)

    def std(self) -> float:
        """Standard deviation, from ``E[X^2] = 2 int x S(x) dx`` over the support window."""
        w = self.support_window()
        x = np.linspace(0.0, w, 8193)
        second = 2.0 * float(simpson_weights(8192, w / 8192) @ (x * self.survivor(x)))
        return math.sqrt(max(second - self.mean() ** 2, 0.0))

    def density_table(self, n_nodes: int = 2048) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and density samples ``(x, rho)`` covering the support window.

        The samples are rescaled so that ``atom0 + trapezoid(rho, x) == 1``,
        the mass :class:`TabulatedDeadTime` demands of a table.
        """
        x = np.linspace(0.0, self.support_window(), n_nodes)
        rho = np.asarray(self.density(x), dtype=float)
        return x, rho * ((1.0 - self.atom0) / np.trapezoid(rho, x))

    def length_biased_quantile(self, u):
        """Inverse CDF of the size-biased law ``x*rho(x)/mean``, elementwise."""
        x, pdf = self.density_table(8193)
        return tabulated_quantile(x, x * pdf, u)

    def integrate(self, fn, a, b) -> np.ndarray:
        """``int fn(x) dF(x)`` over ``[a, b]`` for each pair of limits, the atom at zero
        counting where ``a == 0``.  ``fn`` maps a 2-d array of abscissae, one row
        per pair, to integrand values.  Simpson's rule on 512 cells per row."""
        a, b = np.broadcast_arrays(np.atleast_1d(a), np.atleast_1d(b))
        n = 512
        span = b - a
        x = a[:, None] + span[:, None] * np.linspace(0.0, 1.0, n + 1)
        rho = np.asarray(self.density(x.ravel()), dtype=float).reshape(x.shape)
        out = (fn(x) * rho * simpson_weights(n, 1.0)).sum(axis=1) * (span / n)
        if self.atom0 > 0.0:
            out = out + self.atom0 * np.where(a == 0.0, fn(a[:, None])[:, 0], 0.0)
        return out

    def tilted_closed_form(self, c: float) -> bool:
        """Whether :meth:`tilted_integral` at rate ``c`` is a closed form."""
        return False

    def tilted_integral(self, c: float, a, b, s) -> np.ndarray:
        """``int exp(c*x - s) dF(x)`` over ``[a, b]``, for a discount ``s >= c*b``.

        As in :meth:`integrate`, the atom counts where ``a == 0``.  The
        discount sits inside the exponent, so no factor exceeds one.
        """
        a, b, s = np.broadcast_arrays(np.atleast_1d(a), np.atleast_1d(b), np.atleast_1d(s))
        return self.integrate(lambda x: np.exp(c * x - s[:, None]), a, b)

    def survivor_weights(self, h: float) -> np.ndarray:
        """Weights of ``int g(x) S(x) dx`` on the nodes ``j*h`` of the memory window:
        Simpson's times the survivor on ``ceil(window/h)`` cells, at least two."""
        window = self.support_window()
        if not (window > 0.0):
            raise ValueError("dead-time law has no positive support window")
        n_cells = int(np.ceil(window / h - 1e-12))
        if n_cells < 2:
            raise ValueError("trace step does not resolve the memory window")
        x = h * np.arange(n_cells + 1)
        return simpson_weights(n_cells, h) * np.asarray(self.survivor(x), dtype=float)

    def survivor_transform(self, omega: float, ks) -> np.ndarray:
        """``q_k = int S(y) exp(-i k omega y) dy`` for the harmonics ``ks``.

        Simpson's rule on ``max(8192, 64 * cycles)`` cells (made even) over
        the support window.
        """
        upper = float(self.support_window())
        out = np.empty(len(ks), dtype=complex)
        for i, k in enumerate(ks):
            n = max(8192, int(64 * abs(k) * omega * upper / TWO_PI))
            n += n % 2
            y = np.linspace(0.0, upper, n + 1)
            weighted = simpson_weights(n, upper / n) * self.survivor(y)
            phase = (k * omega) * y
            out[i] = complex(weighted @ np.cos(phase), -(weighted @ np.sin(phase)))
        return out


def _closed_transform(law: DeadTimeLaw, omega: float, ks, laplace) -> np.ndarray:
    """``q_k = (1 - L(s))/s`` at ``s = i k omega`` from the Laplace transform ``L``; q_0 = mean."""
    s = [1j * k * omega for k in ks]
    q = [(1.0 - laplace(v)) / v if k else complex(law.mean()) for k, v in zip(ks, s)]
    return np.array(q, dtype=complex)


def _abscissae(x) -> np.ndarray:
    """``x`` as a float array, once checked to be non-negative."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("dead-time abscissa must be non-negative")
    return arr


def _check_levels(q, closed: bool = True) -> np.ndarray:
    """``q`` as a float array, once checked to hold probability levels."""
    q = np.asarray(q, dtype=float)
    if not np.all((q >= 0.0) & ((q <= 1.0) if closed else (q < 1.0))):  # NaN fails
        raise ValueError(f"quantile level must lie in [0, 1{']' if closed else ')'}")
    return q


@dataclass(frozen=True)
class FixedDeadTime(DeadTimeLaw):
    """Deterministic dead time: a unit point mass at ``duration``."""

    duration: float

    def __post_init__(self):
        if not (self.duration >= 0.0) or not math.isfinite(self.duration):
            raise ValueError(f"dead time must be finite and non-negative, got {self.duration}")

    @property
    def fixed_duration(self):
        return self.duration

    def mean(self):
        return self.duration

    def survivor(self, x):
        arr = _abscissae(x)
        return _wrap_scalar(x, np.where(arr < self.duration, 1.0, 0.0))

    def density(self, x):
        return _wrap_scalar(x, np.zeros_like(_abscissae(x)))

    def quantile(self, q):
        _check_levels(q)
        return _wrap_scalar(q, np.full(np.shape(q), self.duration))

    def density_table(self, n_nodes=2048):
        raise ValueError("a deterministic dead time has no density table")

    def length_biased_quantile(self, u):
        return np.full_like(u, self.duration)

    def survivor_weights(self, h):
        # sharp window: plain trapezoid on the d/h cells, which is exact across
        # the node-aligned kinks that the fixed delay propagates into nu
        d = self.duration
        n_cells = int(round(d / h))
        if n_cells < 2 or abs(n_cells * h - d) > 1e-9 * d:
            raise ValueError(f"trace step {h} does not resolve the dead time {d}")
        w = np.full(n_cells + 1, h)
        w[0] = w[-1] = 0.5 * h
        return w

    def integrate(self, fn, a, b):
        # the point mass, in (a, b]; at zero duration it is the atom
        a, b = np.broadcast_arrays(np.atleast_1d(a), np.atleast_1d(b))
        inside = ((a < self.duration) | (a == 0.0)) & (self.duration <= b)
        return np.where(inside, fn(np.full((a.size, 1), self.duration))[:, 0], 0.0)

    def survivor_transform(self, omega, ks):
        return _closed_transform(self, omega, ks, lambda s: cmath.exp(-s * self.duration))


def _gamma_log_density(order: int, rate: float, x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        logx = np.where(x > 0.0, np.log(np.where(x > 0.0, x, 1.0)), -np.inf)
    out = (order + 1) * math.log(rate) - rate * x - math.lgamma(order + 1)
    if order > 0:
        out = out + order * logx
    return out


# exp(-s) is a normal float, with full precision, only for s below this
_EXP_NORMAL_FLOOR = -math.log(sys.float_info.min)


# Regularized incomplete gamma functions P(a, z) and Q(a, z) = 1 - P(a, z)
# at an integer shape a >= 1.  Each is summed on its own side of z = a,
# where it is at most about 0.63, and the other is its complement.  Every
# kernel is elementwise with a term count fixed by a alone, so an element's
# bits never depend on the rest of its array.


@functools.lru_cache(maxsize=None)
def _term_counts(a: int) -> tuple[int, int]:
    """Terms of ``M(1, a + 1, z)`` for ``z < a``, and of the Poisson sum for
    ``z >= a``, that reach double precision.

    Past term ``k`` the series terms are below ``prod_{i <= k} a/(a + i)``
    and sum to less than that times ``a/(k + 1)``; the Poisson terms, taken
    from the largest down, are below ``prod_{i <= k} (a - i)/a`` and number
    ``a - 1 - k``.
    """
    k, bound = 0, 1.0
    while bound * a / (k + 1) >= 2.0**-53:
        k += 1
        bound *= a / (a + k)
    m, bound = 0, 1.0
    while m < a - 1 and bound * (a - 1 - m) >= 2.0**-53:
        m += 1
        bound *= (a - m) / a
    return k, m


@functools.lru_cache(maxsize=None)
def _stirling_gap(n: int) -> float:
    """``n log n - n - log n!``, without the cancellation of its three terms for large ``n``."""
    if n < 10:
        return n * math.log(n) - n - math.lgamma(n + 1)
    # Stirling's series; the first omitted term, 0.0064 / n**13, is below 1e-15
    w = 1.0 / (n * n)
    c = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188, 691 / 360360)
    tail = c[0] - w * (c[1] - w * (c[2] - w * (c[3] - w * (c[4] - w * c[5]))))
    return -0.5 * math.log(2.0 * math.pi * n) - tail / n


def _log_poisson_term(n: int, z: np.ndarray) -> np.ndarray:
    """``log(z**n exp(-z)/n!)``, written ``n (log r - r + 1) + n log n - n - log n!``
    with ``r = z/n`` so that its rounding shrinks with ``|r - 1|`` near the peak."""
    if n == 0:
        return -z
    r = z / n
    with np.errstate(divide="ignore", invalid="ignore"):
        out = n * (np.log(r) - (r - 1.0)) + _stirling_gap(n)
    return np.where(z == np.inf, -np.inf, out)


def _lower_series(a: int, z: np.ndarray):
    """``log(z**a exp(-z)/a!)`` and ``M(1, a + 1, z)``, whose product is
    ``P(a, z)``; for ``z < a``."""
    s = np.ones_like(z)
    for k in range(_term_counts(a)[0], 0, -1):
        s *= z
        s /= a + k
        s += 1.0
    return _log_poisson_term(a, z), s


def _upper_sum(a: int, z: np.ndarray):
    """``log(z**(a-1) exp(-z)/(a-1)!)`` and the Poisson sum
    ``sum_{j<a} z**(j-a+1) (a-1)!/j!``, whose product is ``Q(a, z)``; for ``z >= a``."""
    s = np.ones_like(z)
    for i in range(a - _term_counts(a)[1], a):
        s *= i
        s /= z
        s += 1.0
    return _log_poisson_term(a - 1, z), s


def _gamma_tail(a: int, z, upper: bool, log: bool = False) -> np.ndarray:
    """``Q(a, z)`` if ``upper``, else ``P(a, z)``, or its log, elementwise over float ``z >= 0``.

    The log stays finite where the summed tail underflows.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty(z.shape)
    low = z < a
    for summed_upper, at, kernel in ((False, low, _lower_series), (True, ~low, _upper_sum)):
        front, s = kernel(a, z[at])
        if log:
            v = front + np.log(s)
            out[at] = v if summed_upper == upper else np.log1p(-np.exp(v))
        else:
            v = np.exp(front) * s
            out[at] = v if summed_upper == upper else 1.0 - v
    return out[()]


def _log_gammainc(a: int, z):
    """Log of the regularized lower incomplete gamma function, finite where it underflows."""
    return _gamma_tail(a, z, upper=False, log=True)


def _normal_upper_quantile(p: np.ndarray) -> np.ndarray:
    """``z`` with upper normal tail ``p``, to about 5e-4 (Abramowitz & Stegun 26.2.23)."""
    t = np.sqrt(-2.0 * np.log(np.minimum(p, 1.0 - p)))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )
    return np.where(p < 0.5, z, -z)


# a cap only: from the Wilson-Hilferty start, 6,000 sampled levels and the
# extremes at each of 69 shapes from 1 to 5001 took at most 10 steps
_NEWTON_STEPS = 64


def _gammainccinv(a: int, y) -> np.ndarray:
    """``x`` with ``Q(a, x) = y``, elementwise over levels in ``[0, 1]``.

    Newton steps on the log of the smaller tail (Q in ``x`` where ``y <=
    1/2``, P in ``log x`` otherwise) from a Wilson-Hilferty start, as in
    DiDonato & Morris, ACM TOMS 12 (1986) 377-393.  Both logs are concave
    in their variable, so after the first step the iterates approach the
    root from one side.  A step from a poor start is cut to move ``x`` by
    a factor between 1/2 and 5 on the Q side, and between e^-4 and e^4 on
    the P side.
    """
    y = np.asarray(y, dtype=float)
    x = np.full(y.shape, np.nan)
    x[y == 0.0] = np.inf
    x[y == 1.0] = 0.0
    flat = x.reshape(-1)
    todo = np.flatnonzero((y > 0.0) & (y < 1.0))
    yt = y.reshape(-1)[todo]
    upper = yt <= 0.5
    log_t = np.log(np.where(upper, yt, 1.0 - yt))
    with np.errstate(invalid="ignore"):
        cube = 1.0 - 1.0 / (9 * a) + _normal_upper_quantile(yt) / (3.0 * math.sqrt(a))
    # where Wilson-Hilferty fails, a start left of the root: Q(a, x) >= exp(-x)
    # and P(a, x) <= x**a / a!
    left = np.where(upper, -log_t, np.exp((log_t + math.lgamma(a + 1)) / a))
    xt = np.where(cube > 0.0, a * cube**3, left)
    xt = np.where(upper, np.maximum(xt, left), xt)
    lgam = math.lgamma(a)
    for _ in range(_NEWTON_STEPS):
        if not todo.size:
            break
        with np.errstate(divide="ignore"):
            log_x = np.log(xt)
        log_tail = np.empty(xt.shape)
        log_tail[upper] = _gamma_tail(a, xt[upper], True, log=True)
        log_tail[~upper] = _gamma_tail(a, xt[~upper], False, log=True)
        # d log(tail)/d log(x) = x density/tail
        slope = np.exp(a * log_x - xt - lgam - log_tail)
        step = (log_tail - log_t) / slope
        new = np.where(
            upper, xt * (1.0 + np.clip(step, -0.5, 4.0)), xt * np.exp(-np.clip(step, -4.0, 4.0))
        )
        done = ~(np.abs(new - xt) > 1e-11 * new)
        flat[todo[done]] = new[done]
        keep = ~done
        todo, xt, upper, log_t = todo[keep], new[keep], upper[keep], log_t[keep]
    flat[todo] = xt
    return x[()]


@dataclass(frozen=True)
class GammaDeadTime(DeadTimeLaw):
    """Gamma-distributed dead time with integer kernel order.

    The density is proportional to ``x**order * exp(-rate*x)``; the mean is
    ``(order + 1)/rate``.  ``order == 0`` is the exponential special case.
    """

    order: int
    rate: float

    def __post_init__(self):
        if not isinstance(self.order, (int, np.integer)) or self.order < 0:
            raise ValueError(f"kernel order must be a non-negative integer, got {self.order}")
        if not (self.rate > 0.0) or not math.isfinite(self.rate):
            raise ValueError(f"gamma rate must be positive and finite, got {self.rate}")

    def mean(self):
        return (self.order + 1) / self.rate

    def std(self):
        return math.sqrt(self.order + 1) / self.rate

    def survivor(self, x):
        arr = _abscissae(x)
        return _wrap_scalar(x, _gamma_tail(self.order + 1, self.rate * arr, upper=True))

    def density(self, x):
        arr = _abscissae(x)
        if self.order == 0:
            return _wrap_scalar(x, self.rate * np.exp(-self.rate * arr))
        out = np.exp(_gamma_log_density(self.order, self.rate, arr))
        return _wrap_scalar(x, out)

    def density_derivative(self, x):
        arr = _abscissae(x)
        if self.order == 0:
            return _wrap_scalar(x, -self.rate**2 * np.exp(-self.rate * arr))
        lower = np.exp(_gamma_log_density(self.order - 1, self.rate, arr))
        here = np.exp(_gamma_log_density(self.order, self.rate, arr))
        return _wrap_scalar(x, self.rate * (lower - here))

    def quantile(self, q):
        out = _gammainccinv(self.order + 1, 1.0 - _check_levels(q, closed=False)) / self.rate
        return _wrap_scalar(q, out)

    def length_biased_quantile(self, u):
        return _gammainccinv(self.order + 2, 1.0 - u) / self.rate

    def tilted_closed_form(self, c):
        return self.rate > c * (1.0 + 1e-9)

    def tilted_integral(self, c, a, b, s):
        """Closed form below the gamma rate: ``rho(x) exp(c x)`` is the gamma
        density at the rate ``rate - c`` times ``(rate/(rate - c))**(order + 1)``,
        so its mass is a difference of regularized incomplete gamma functions,
        taken on whichever tail keeps the two terms well separated."""
        if not self.tilted_closed_form(c):
            return super().tilted_integral(c, a, b, s)
        n1 = self.order + 1
        shift = self.rate - c
        a_arr = np.asarray(a, dtype=float)
        zb = shift * np.asarray(b, dtype=float)
        if a_arr.ndim == 0 and float(a_arr) == 0.0:
            za, delta = 0.0, _gamma_tail(n1, zb, upper=False)
        else:
            za, zb = np.broadcast_arrays(shift * a_arr, zb)
            lower_a = _gamma_tail(n1, za, upper=False)
            delta = np.empty_like(lower_a)
            hi = lower_a > 0.5
            if np.any(hi):
                delta[hi] = _gamma_tail(n1, za[hi], True) - _gamma_tail(n1, zb[hi], True)
            lo = ~hi
            if np.any(lo):
                delta[lo] = _gamma_tail(n1, zb[lo], False) - lower_a[lo]
        delta = np.clip(delta, 0.0, None)
        ratio = self.rate / shift
        s = np.asarray(s, dtype=float)
        # the float power raises where it would overflow, so test its log first
        near = n1 * math.log(ratio) < 700.0 and ratio**n1 < 1e290
        if near:
            out = np.exp(-s) * (delta * ratio**n1)
            # where exp(-s) alone leaves the normal range the product need
            # not: those elements take the log form below, the others keep
            # their bits
            deep = np.broadcast_to(s > _EXP_NORMAL_FLOOR, out.shape)
            if not np.any(deep):
                return out
        # a far tilt (the factor overflows and the mass underflows) or a deep
        # discount: add logs, summing a lower tail that underflowed by its series
        with np.errstate(divide="ignore", invalid="ignore"):
            log_delta = np.log(delta)
            lost = (delta < 1e-300) & (zb < n1)
            if np.any(lost):
                # the series costs tens of array passes, so sum it only where needed
                lb = _log_gammainc(n1, zb[lost])
                la = _log_gammainc(n1, np.broadcast_to(za, np.shape(zb))[lost])
                log_delta = np.array(log_delta)
                log_delta[lost] = np.where(la < lb, lb + np.log1p(-np.exp(la - lb)), -np.inf)
        via_logs = np.exp(n1 * math.log(ratio) + log_delta - s)
        return np.where(deep, via_logs, out) if near else via_logs

    def survivor_transform(self, omega, ks):
        return _closed_transform(
            self, omega, ks, lambda s: (self.rate / (self.rate + s)) ** (self.order + 1)
        )


@dataclass(frozen=True, eq=False)
class TabulatedDeadTime(DeadTimeLaw):
    """Dead-time law given by density samples plus an optional atom at zero.

    Parameters
    ----------
    x : ndarray
        Finite, strictly increasing abscissae, ``x[0] >= 0``.  Grids may be
        non-uniform (log-spaced grids are common for heavy-tailed laws).
    pdf : ndarray
        Density samples, non-negative up to a ``-1e-12`` numerical slack.
    atom_at_zero : float
        Probability mass sitting exactly at zero dead time.

    The total mass ``atom_at_zero + trapezoid(pdf)`` must equal one within
    ``1e-9``.
    """

    x: np.ndarray
    pdf: np.ndarray
    atom_at_zero: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        pdf = np.asarray(self.pdf, dtype=float)
        if x.ndim != 1 or x.size < 2 or pdf.shape != x.shape:
            raise ValueError("need matching 1-d arrays with at least two nodes")
        if not np.all(np.isfinite(x)) or x[0] < 0.0 or np.any(np.diff(x) <= 0.0):
            raise ValueError("abscissae must be finite, non-negative and strictly increasing")
        if np.any(pdf < -1e-12) or not np.all(np.isfinite(pdf)):
            raise ValueError("density samples must be non-negative")
        pdf = np.clip(pdf, 0.0, None)
        if not (0.0 <= self.atom_at_zero <= 1.0):
            raise ValueError("atom mass must lie in [0, 1]")
        mass = self.atom_at_zero + np.trapezoid(pdf, x)
        if not abs(mass - 1.0) <= 1e-9:
            raise ValueError(f"law mass {mass!r} deviates from one by more than 1e-9")
        cdf = np.minimum(self.atom_at_zero + cumulative_trapezoid(pdf, x), 1.0)
        for name, arr in (("x", x), ("pdf", pdf), ("_cdf", cdf)):
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def atom0(self):
        return self.atom_at_zero

    def survivor(self, x):
        arr = _abscissae(x)
        cdf = np.interp(arr, self.x, self._cdf, left=self.atom_at_zero, right=1.0)
        # below the first node the density has not started accruing
        out = 1.0 - np.where(arr < self.x[0], self.atom_at_zero, cdf)
        return _wrap_scalar(x, out)

    def density(self, x):
        arr = _abscissae(x)
        return _wrap_scalar(x, np.interp(arr, self.x, self.pdf, left=0.0, right=0.0))

    def quantile(self, q):
        arr = _check_levels(q)
        out = np.where(arr <= self.atom_at_zero, 0.0, np.interp(arr, self._cdf, self.x))
        return _wrap_scalar(q, out)

    def density_table(self, n_nodes=2048):
        return self.x, self.pdf

    def survivor_transform(self, omega, ks):
        """Exact ``q_k`` over ``[0, x[-1]]`` of :meth:`survivor`, linear between the nodes.

        By parts, ``q_k`` is one exponential per node weighted by the survivor's
        slope jumps; that sum cancels as ``(k omega x[-1])**-2``, so below
        ``|k omega x[-1]| = 1`` the power series in the survivor's moments is
        summed instead.  ``q_0 = int S`` is the law's mean; :meth:`density`
        stays the interpolant of the samples, not this survivor's derivative.
        """
        z, s = self.x, 1.0 - self._cdf
        if z[0] > 0.0:  # the survivor holds 1 - atom0 from 0 up to the first node
            z, s = np.concatenate(([0.0], z)), np.concatenate(([1.0 - self.atom_at_zero], s))
        jumps = np.diff(np.diff(s) / np.diff(z), prepend=0.0, append=0.0)
        end, s_end = float(z[-1]), float(s[-1])
        series = any(0 < abs(k * omega) * end < 1.0 for k in ks)
        # moments int S(y) (y/end)**p dy / end, from the same jumps by parts
        moments = [s_end / (p + 1) + end * (jumps @ (z / end) ** (p + 2)) / ((p + 1) * (p + 2))
                   for p in range(20 if series else 0)]
        out = np.empty(len(ks), dtype=complex)
        for i, k in enumerate(ks):
            w = k * omega
            if k == 0:
                out[i] = np.trapezoid(s, z)
            elif abs(w) * end < 1.0:
                acc = 0j
                for p in reversed(range(20)):
                    acc = acc * (-1j * w * end) / (p + 1) + moments[p]
                out[i] = end * acc
            else:
                phase = w * z
                tail = complex(jumps @ np.cos(phase), -(jumps @ np.sin(phase)))
                out[i] = (s[0] - s_end * cmath.exp(-1j * w * end)) / (1j * w) - tail / w**2
        return out


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def _real_signal(values: np.ndarray, max_imag: float) -> np.ndarray:
    """Real part of a sampled Fourier series whose imaginary residue is at most
    ``max_imag`` relative to the signal scale; a larger one raises."""
    scale = max(float(np.max(np.abs(values))), 1.0)
    resid = float(np.max(np.abs(values.imag))) / scale
    if resid > max_imag:
        raise NumericalError(
            f"imaginary residue {resid:.3e} exceeds {max_imag:.1e}; "
            "spectrum is not consistent with a real signal"
        )
    return values.real


class Spectrum:
    """Finite Fourier series ``sum_k c_k exp(i k omega t)`` with real signal.

    Coefficients are stored for ``k = -K..K`` and must satisfy the reality
    condition ``c_{-k} == conj(c_k)`` within ``tol`` (relative to the largest
    coefficient).

    Parameters
    ----------
    omega : float
        Base angular frequency, strictly positive.
    coeffs : array_like of complex
        Odd-length coefficient vector ordered from ``-K`` to ``K``.
    """

    __slots__ = ("omega", "coeffs")

    def __init__(self, omega: float, coeffs, tol: float = 1e-9):
        if not (omega > 0.0) or not math.isfinite(omega):
            raise ValueError(f"angular frequency must be positive and finite, got {omega}")
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 != 1:
            raise ValueError("coefficient vector must be 1-d with odd length")
        scale = max(float(np.max(np.abs(c))), 1.0)
        asym = float(np.max(np.abs(c[::-1].conj() - c)))
        if asym > tol * scale:
            raise ValueError(
                f"coefficients violate the reality condition by {asym:.3e} (tol {tol:.1e})"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "omega", float(omega))
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Spectrum is immutable")

    @property
    def order(self) -> int:
        return (self.coeffs.size - 1) // 2

    def coefficient(self, k: int) -> complex:
        """Coefficient ``c_k``; indices beyond the stored order read as zero."""
        if abs(k) > self.order:
            return 0.0 + 0.0j
        return complex(self.coeffs[k + self.order])

    def evaluate(self, t, max_imag: float = 1e-8):
        """Real signal value at ``t``.

        The tiny imaginary residue of the complex sum is checked against
        ``max_imag`` (relative to the signal scale) and discarded.
        """
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        k = np.arange(-self.order, self.order + 1)
        phases = np.exp(1j * self.omega * np.outer(arr, k))
        values = _real_signal(phases @ self.coeffs, max_imag)
        return _wrap_scalar(t, values.reshape(np.shape(t)))

    def sample_period(self, n: int) -> np.ndarray:
        """Real signal at ``t = j*T/n`` for ``j = 0..n``, one period ``T = 2 pi/omega``.

        At these times ``exp(i k omega t)`` depends on ``k mod n`` only, so
        the coefficients are folded into ``n`` bins and summed by one
        unscaled inverse FFT.  The values agree with :meth:`evaluate` on the
        same times to rounding; the last one repeats the first.  The
        imaginary residue is checked as :meth:`evaluate` checks it by
        default.
        """
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"samples per period must be a positive integer, got {n}")
        k = np.arange(-self.order, self.order + 1) % n
        folded = np.bincount(k, self.coeffs.real, n) + 1j * np.bincount(k, self.coeffs.imag, n)
        values = _real_signal(np.fft.ifft(folded, norm="forward"), 1e-8)
        return np.append(values, values[0])

    def to_csv(self, path):
        """Write headerless rows ``k, re, im`` from ``-K`` to ``K``."""
        k = np.arange(-self.order, self.order + 1)
        write_csv(path, SPECTRUM_CSV, (k, self.coeffs.real, self.coeffs.imag))

    @classmethod
    def from_csv(cls, path, omega: float, tol: float = 1e-9) -> "Spectrum":
        """Read rows ``k, re, im``; harmonics without a row are zero.

        The order may not exceed the row count, which bounds the array a
        file can ask for.
        """
        (k, re, im), _ = read_csv(path, SPECTRUM_CSV)
        if np.unique(k).size < k.size:
            raise ValueError("spectrum repeats a harmonic index")
        order = max(-int(k.min()), int(k.max()))
        if order > k.size:
            raise ValueError(f"harmonic index {order} exceeds the {k.size} rows of the spectrum")
        coeffs = np.zeros(2 * order + 1, dtype=complex)
        coeffs.real[k + order] = re
        coeffs.imag[k + order] = im
        return cls(omega, coeffs, tol=tol)


SPECTRUM_CSV = Schema("spectrum", "k,re,im", "iff", headerless=True)


def signal_spectrum(sig: InputSignal, omega: float, order: int) -> Spectrum:
    """Fourier coefficients of a periodic input at base angular frequency ``omega``.

    Constant inputs are flat spectra; cosine inputs must match the requested
    frequency and produce coefficients ``base`` at zero and half the
    amplitude at ``k = +-1``.  Sampled inputs covering exactly one period are
    transformed discretely.  Aperiodic inputs (steps) are rejected.
    """
    if not (omega > 0.0):
        raise ValueError("angular frequency must be positive")
    if order < 0:
        raise ValueError("spectral order must be non-negative")
    return sig.spectrum(omega, order)


# ---------------------------------------------------------------------------
# traces and histories
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Trace:
    """Active fraction and ensemble rate sampled on a time grid."""

    grid: TimeGrid
    active: np.ndarray
    rate: np.ndarray

    def __post_init__(self):
        active = np.asarray(self.active, dtype=float)
        rate = np.asarray(self.rate, dtype=float)
        if active.shape != (self.grid.n,) or rate.shape != (self.grid.n,):
            raise ValueError("trace arrays must match the grid length")
        if not (np.all(np.isfinite(active)) and np.all(np.isfinite(rate))):
            raise ValueError("trace values must be finite")
        if np.any(active < -1e-6) or np.any(active > 1.0 + 1e-6):
            raise ValueError("active fraction leaves [0, 1]")
        if np.any(rate < -1e-6):
            raise ValueError("ensemble rate turned negative")
        for name, arr in (("active", active), ("rate", rate)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def to_csv(self, path):
        """Write rows ``t, A, nu`` under a one-line header."""
        write_csv(path, TRACE_CSV, (self.grid.times(), self.active, self.rate))

    @classmethod
    def from_csv(cls, path) -> "Trace":
        (t, active, rate), _ = read_csv(path, TRACE_CSV)
        return cls(TimeGrid.from_times(t), active, rate)


TRACE_CSV = Schema("trace", "t,A,nu", "fff")


@dataclass(frozen=True)
class History:
    """Ensemble trajectory on the look-back window before integration starts.

    ``active(t)`` and ``rate(t)`` must be defined for all ``t`` up to and
    including the integration start; at the start itself they carry the left
    limits.  :meth:`balance` is the occupation at the start under a fixed
    dead time; each solver gates it by :func:`check_balance` with its own limit.
    """

    active: Callable[[float], float]
    rate: Callable[[float], float]

    def sample_rate(self, ts: np.ndarray) -> np.ndarray:
        """The rate at the times ``ts``.

        A scalar-only callable such as ``math.exp`` raises ``TypeError`` or
        ``ValueError`` on an array and is then called per element; any other
        fault of the callable reads as the history not covering ``ts``.
        """
        try:
            try:
                out = np.asarray(self.rate(ts), dtype=float)
                if out.shape == ts.shape:
                    return out
            except (TypeError, ValueError):
                pass
            return np.array([float(self.rate(float(s))) for s in ts])
        except Exception as exc:
            raise ValueError(
                f"history does not cover [{ts[0]:.6g}, {ts[-1]:.6g}]: {exc}"
            ) from exc

    def balance(self, t0: float, d: float) -> float:
        """Occupation balance ``A(t0) + int nu`` over ``[t0 - d, t0]`` for a fixed dead time ``d``.

        One for a consistent start.  Simpson's rule on 8,192 cells.
        """
        nu = self.sample_rate(np.linspace(t0 - d, t0, 8193))
        return float(simpson_weights(8192, d / 8192.0) @ nu) + float(self.active(t0))


def check_balance(balance: float, limit: float) -> None:
    """Raise ``ValueError`` unless an occupation ``balance`` at the start is one within ``limit``."""
    if abs(balance - 1.0) > limit:
        raise ValueError(f"history violates the occupation normalization by "
                         f"{abs(balance - 1.0):.3e} (limit {limit:g})")


def stationary_active_fraction(rate: float, mean_dead_time: float) -> float:
    """Stationary fraction ``1/(1 + rate*mean)`` of components outside their dead time."""
    return 1.0 / (1.0 + rate * mean_dead_time)


def equilibrium_history(input_rate: float, mean_dead_time: float) -> History:
    """Constant-history equilibrium for a given input rate and mean dead time.

    The active fraction is :func:`stationary_active_fraction` and the event
    rate is the input rate times it; the pair satisfies the occupation
    balance exactly.
    """
    if not (input_rate >= 0.0) or not (mean_dead_time >= 0.0):
        raise ValueError("rate and mean dead time must be non-negative")
    a = stationary_active_fraction(input_rate, mean_dead_time)
    nu = input_rate * a

    def _const(c):
        def f(t):
            return c + 0.0 * np.asarray(t, dtype=float)

        return f

    return History(active=_const(a), rate=_const(nu))


# ---------------------------------------------------------------------------
# density CSV (tabulated dead-time laws)
# ---------------------------------------------------------------------------


def write_law_csv(law: DeadTimeLaw, path, n_nodes: int = 2048):
    """Serialize a law as ``x, rho`` rows under a header carrying the atom mass.

    Tabulated laws are written on their own grid; analytic laws are sampled
    on a uniform grid covering their support window.  A law written to a
    regular file also gets a binary twin beside it (:func:`_write_twin`).
    """
    columns = [np.asarray(col, dtype=float) for col in law.density_table(n_nodes)]
    write_csv(path, LAW_CSV, columns, law.atom0)
    if path != "-":
        _write_twin(path, columns, float(law.atom0))


def read_law_csv(path) -> TabulatedDeadTime:
    """The law in a law file, from its binary twin when the twin matches the file."""
    (x, pdf), atom = _read_twin(path) or read_csv(path, LAW_CSV)
    return TabulatedDeadTime(x, pdf, atom)


LAW_CSV = Schema("law", "x,rho", "ff", parameter="atom0")

#: The laws the command line spells ``kind:fields``: kind -> (form, field types,
#: builder); a str field names a file, read by name so a wrapped reader sees it.
LAW_KINDS = {
    "fixed": ("D", (float,), FixedDeadTime),
    "gamma": ("n,beta", (int, float), GammaDeadTime),
    "table": ("FILE", (str,), lambda path: read_law_csv(path)),
}

# A law file's binary twin, ``.<name>.deadtime.npz`` beside it, holds the
# values its text reads back to, so that a reader need not parse the text.
# It is trusted exactly when it carries this tag and the SHA-256 of the
# file's bytes, as a hash-checked ``.pyc`` is (PEP 552); any other twin is
# ignored.  Only the writer writes twins.
_TWIN_TAG = "deadtime law twin 1"


def _twin_path(path) -> str:
    head, name = os.path.split(os.fspath(path))
    return os.path.join(head, f".{name}.deadtime.npz")


def _sha256(path) -> str:
    import hashlib  # not at the top: importing the command line stays as lean as it was

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_twin(path, columns, atom: float) -> None:
    """Write the twin of the law file just written at ``path``, atomically.

    Only a regular file gets one.  A twin that cannot be written is left
    out, which costs its readers only the time of parsing the text.
    """
    twin = _twin_path(path)
    try:
        mode = os.stat(path).st_mode
        if not stat.S_ISREG(mode):
            return
        head, name = os.path.split(twin)
        fd, tmp = tempfile.mkstemp(prefix=name.removesuffix("deadtime.npz"),
                                   suffix=".deadtime.npz", dir=head or os.curdir)
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, tag=_TWIN_TAG, digest=_sha256(path), rows=columns[0].size,
                     x=columns[0], rho=columns[1], atom0=atom)
        os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, twin)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _read_twin(path):
    """``([x, rho], atom0)`` from the twin of the law file ``path``, or ``None``
    unless the twin's tag, digest and row count all match."""
    try:  # a twin that is missing, unreadable or not NumPy data is no twin
        twin = np.load(_twin_path(path), allow_pickle=False)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile):
        return None
    if not isinstance(twin, np.lib.npyio.NpzFile):
        return None
    with twin:
        try:
            if str(twin["tag"]) != _TWIN_TAG or str(twin["digest"]) != _sha256(path):
                return None
            rows, x, rho, atom = int(twin["rows"]), twin["x"], twin["rho"], float(twin["atom0"])
        except (KeyError, TypeError, ValueError, EOFError, zipfile.BadZipFile):
            return None
    # the text of a file without rows raises its own error
    if rows == 0 or any(col.dtype != float or col.shape != (rows,) for col in (x, rho)):
        return None
    _check_columns(LAW_CSV, (x, rho))
    return [x, rho], atom
