"""Every property test draws the same examples on every run.

A derandomized profile seeds Hypothesis from each test's own source, and no
example database carries draws from one run into the next, so a test that
passes here passes on every machine.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
