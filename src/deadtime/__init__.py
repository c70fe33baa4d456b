"""Ensembles of Poisson processes with refractoriness.

Public API re-exported from the submodules:

- input signals and dead-time laws (:mod:`deadtime.core`)
- closed-form constant-input results (:mod:`deadtime.analytic_ppd`)
- state-space model for gamma dead times (:mod:`deadtime.gamma_chain`)
- periodic steady states and harmonic transfer (:mod:`deadtime.spectral`)
- delay-equation integrators (:mod:`deadtime.dde`)
- seeded Monte Carlo (:mod:`deadtime.mc_sim`)
- renewal-process representability (:mod:`deadtime.renewal_map`)

The names below come from :mod:`deadtime.core` on first use (PEP 562), so
``import deadtime`` loads no NumPy and ``python -m deadtime.cli`` reaches
the command line before NumPy loads.
"""

__version__ = "0.1.0"

__all__ = [
    "Constant",
    "Cosine",
    "DeadTimeLaw",
    "FixedDeadTime",
    "GammaDeadTime",
    "History",
    "InputSignal",
    "NotRepresentableError",
    "NumericalError",
    "Sampled",
    "Spectrum",
    "Step",
    "TabulatedDeadTime",
    "TimeGrid",
    "Trace",
    "angular_frequency",
    "equilibrium_history",
    "signal_spectrum",
    "__version__",
]


def __getattr__(name):
    if name in __all__:
        from . import core

        value = globals()[name] = getattr(core, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
