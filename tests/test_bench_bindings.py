"""The names in the package that the traced benchmark binds to.

``perfbench/tracer.py`` wraps each function of its ``TARGETS`` where the
package binds it, the ``Spectrum.from_csv`` classmethod and
``cli.ThreadPoolExecutor``.  The benchmark's own smoke test is not part of
this suite, so this test installs the tracer on the package as it stands:
a deletion in ``src/`` that removes one of those names fails here rather
than in ``perfbench/run.py --trace 1``.  Commands import their route
modules when they run, so a traced command must still reach the wrapped
functions.  It only reads the benchmark.
"""

import concurrent.futures
import os
import sys

from deadtime import cli, core

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _tracer():
    sys.path.insert(0, BENCH)
    try:
        import tracer
    finally:
        sys.path.remove(BENCH)
    tracer.load_modules()
    return tracer


def test_tracer_installs_on_every_binding_site_and_restores():
    tracer = _tracer()
    from_csv = core.Spectrum.__dict__["from_csv"]
    t = tracer.Tracer()
    try:
        t.install()
        for mod_name, attr, _ in tracer.TARGETS:
            assert hasattr(getattr(sys.modules[mod_name], attr), "__wrapped__"), attr
        assert cli.ThreadPoolExecutor is not concurrent.futures.ThreadPoolExecutor
    finally:
        t.restore()
    assert cli.ThreadPoolExecutor is concurrent.futures.ThreadPoolExecutor
    assert core.Spectrum.__dict__["from_csv"] is from_csv
    for mod_name, attr, _ in tracer.TARGETS:
        assert not hasattr(getattr(sys.modules[mod_name], attr), "__wrapped__"), attr


def test_traced_commands_record_their_layers(tmp_path, monkeypatch):
    tracer = _tracer()
    monkeypatch.chdir(tmp_path)
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.main(["periodic", "--d", "0.08", "--nu0", "10", "--f", "4", "--harmonics", "4",
                         "--samples", "8", "--out-prefix", "p"]) == 0
        assert cli.main(["hazard", "--law", "gamma:3,50", "--lambda0", "10", "--tau-max", "0.1",
                         "--points", "5", "--out", "h.csv"]) == 0
    finally:
        t.restore()
    names = {span.name for span in t.spans}
    assert {"spectral.solve_active_spectrum", "spectral.qk_array", "mc_sim.hazard_pprd",
            "cli.worker"} <= names
